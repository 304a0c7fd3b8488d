"""One ``paper`` op: regenerate every experiment in a fresh interpreter.

Started by ``paper.py`` with an empty result-cache directory and an
empty working directory.  It does what ``examples/reproduce_paper.py``
does, then — after the op's clock has stopped — collects the figures
the output checks need and writes them, with its ``time.monotonic``
ready and done stamps, to ``--out`` as JSON.

Run:  python3 perfbench/paper_child.py --out result.json [--trace 1 --op 3]
"""

import argparse
import json
import sys
import time


def collect(results: dict) -> dict:
    """Everything the checks and fidelity lines read, as plain JSON."""
    from repro.config import default_config
    from repro.eval.experiments import _SWEEP_CACHE
    from repro.eval.harness import DEFAULT_SCALES
    from repro.graphs.datasets import dataset_profile, load_dataset
    from repro.models.zoo import MODEL_ZOO

    # The comparison grid E3–E6 and E12 were rendered from, as the
    # experiments module keeps it for the rest of the run.
    comp = _SWEEP_CACHE[("gcn",)]
    grid = {}
    graphs = {}
    for ds in comp.datasets:
        # The sweep's own snapshot (same name, scale and seed as its jobs).
        graph = load_dataset(ds, scale=DEFAULT_SCALES[ds], seed=7)
        # The grid's 2-layer GCN: features -> 64 hidden -> classes.
        prof = dataset_profile(ds)
        graphs[ds] = {
            "vertices": int(graph.num_vertices),
            "edges": int(graph.num_edges),
            "layers": [[prof.num_features, 64], [64, prof.num_classes]],
        }
        for acc in comp.accelerators:
            res = comp.get(ds, acc)
            grid[f"{ds}/{acc}"] = {
                "add_ops": int(res.counters.add_ops),
                "mac_ops": int(res.counters.mac_ops),
                "ppu_ops": int(res.counters.ppu_ops),
                "dram_bytes": int(res.dram_bytes),
                "total_seconds": float(res.total_seconds),
                "num_tiles": int(res.num_tiles),
            }
    e13 = results["E13"].data
    return {
        "model": comp.model_name,
        "datasets": list(comp.datasets),
        "accelerators": list(comp.accelerators),
        "graphs": graphs,
        "grid": grid,
        "array_k": default_config().array_k,
        "e8_reconfiguration_cycles": int(results["E8"].data["reconfiguration_cycles"]),
        "zoo_models": list(MODEL_ZOO),
        "e13_aurora_cycles": {m: float(v["aurora_cycles"]) for m, v in e13.items()},
        "e14_ratios": [float(v["ratio"]) for v in results["E14"].data.values()],
        "e12": {
            base: [v["time_reduction_percent"], v["energy_reduction_percent"]]
            for base, v in results["E12"].data.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--op", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    import repro.eval

    tracer = None
    if args.trace:
        import layers
        from tracing import Tracer

        tracer = layers.install(Tracer())
    t_ready = time.monotonic()
    results = {}
    if tracer is not None:
        root, token = tracer.open("op", op=args.op)
    # Looked up on the module at call time, so a traced child calls the
    # wrapped run_experiment.
    for eid in repro.eval.EXPERIMENTS:
        result = repro.eval.run_experiment(eid)
        results[eid] = result
        print(f"\n{'=' * 72}\n{result.experiment_id} — {result.title}\n{'=' * 72}")
        print(result.text)
    sys.stdout.flush()
    if tracer is not None:
        tracer.close(root, token)
    t_done = time.monotonic()
    if tracer is not None:
        tracer.restore()
        from tracing import write_spans

        write_spans(tracer.spans, args.spans)

    payload = collect(results)
    with open(args.out, "w") as handle:
        json.dump({"t_ready": t_ready, "t_done": t_done, "payload": payload}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
