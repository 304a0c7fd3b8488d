"""Which program functions are traced, and how their spans become metrics.

:func:`install` wraps every layer boundary listed in :data:`BOUNDARIES`
(see README.md for the end-to-end metric each one should move).
:func:`tree_metrics` turns the span file of a workload whose ops run
sequentially in one context (``paper``, ``cycle-calib``) into per-layer
metrics; ``serve_mix.py`` adds the cross-thread accounting of the
service on top of the same self times.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from pathlib import Path

from tracing import Tracer, self_times

__all__ = ["BOUNDARIES", "PER_LAYER", "install", "tree_metrics", "zero_metrics", "as_metrics"]

#: Marks the one header the serve-mix clients send: the request's op id.
OP_HEADER = "x-perfbench-op"


def _experiment_name(args, kwargs):
    eid = args[0] if args else kwargs["experiment_id"]
    return f"eval.{str(eid).upper()}"


def _cache_name(verb):
    def name(args, kwargs):
        cache = args[0]
        kind = "runtime.tile_cache" if Path(cache.root).name == "tiles" else f"runtime.cache_{verb}"
        return kind

    return name


def _load_hit(span, result, args):
    span.attrs = {"hit": result is not None}


def _drain_cycles(span, result, args):
    span.attrs = {"cycles": int(getattr(result, "cycles", 0))}


def _request_op(span, result, args):
    # read_request runs inside SimulationService.handle: tag the handle
    # span (this span's parent) with the client's op id.
    if result is not None and span.parent is not None:
        op = result.headers.get(OP_HEADER)
        if op is not None:
            span.parent.op = int(op)
            span.op = int(op)


def _submit_key(span, args, kwargs):
    from repro.runtime.jobs import job_key

    span.attrs = {"key": job_key(args[1])}


def _batch_keys(span, args, kwargs):
    from repro.runtime.jobs import job_key

    span.attrs = {"keys": [job_key(job) for job in args[0]]}


#: (module, function or Class.method, span name, options).  A span name
#: ``x`` reports as the per-layer metric ``x_s`` (mean self seconds per op).
BOUNDARIES = [
    ("repro.graphs.datasets", "load_dataset", "graphs.load_dataset", {}),
    ("repro.graphs.generators", "power_law_graph", "graphs.generate",
     {"skip_under": "graphs.load_dataset"}),
    ("repro.graphs.tiling", "tile_graph", "graphs.tile_graph", {}),
    ("repro.partition.algorithm", "partition", "partition.partition", {}),
    ("repro.models.workload", "extract_workload", "models.extract_workload", {}),
    ("repro.mapping.memo", "map_tile", "mapping.map_tile", {}),
    ("repro.mapping.degree_aware", "degree_aware_map", "mapping.algorithm", {}),
    ("repro.mapping.hashing", "hashing_map", "mapping.algorithm", {}),
    ("repro.mapping.traffic", "multicast_flows", "mapping.flows", {}),
    ("repro.mapping.traffic", "batched_multicast_flows", "mapping.flows", {}),
    ("repro.arch.noc.analytical", "AnalyticalNoCModel.evaluate", "arch.noc.analytical", {}),
    ("repro.arch.noc.network", "warm_route_memo", "arch.noc.routes", {}),
    ("repro.arch.noc.network", "NoCSimulator.inject", "arch.noc.inject", {}),
    ("repro.arch.noc.network", "NoCSimulator.run", "arch.noc.drain", {"post": _drain_cycles}),
    ("repro.arch.dram", "DRAMModel.access", "arch.dram.access", {}),
    ("repro.core.simulator", "AuroraSimulator.simulate_layer", "core.simulate_layer", {}),
    ("repro.core.cycle_engine", "CycleTileEngine.run_tile", "core.run_tile", {}),
    ("repro.core.configuration", "ConfigurationUnit.configure", "core.configure", {}),
    ("repro.baselines.base", "BaselineAccelerator.simulate", "baselines.simulate", {}),
    ("repro.baselines.base", "BaselineAccelerator.simulate_layer", "baselines.simulate", {}),
    ("repro.runtime.jobs", "execute_job", "runtime.execute_job", {}),
    ("repro.runtime.runner", "run_jobs", "runtime.run_jobs", {}),
    ("repro.runtime.cache", "ResultCache.load", _cache_name("load"), {"post": _load_hit}),
    ("repro.runtime.cache", "ResultCache.store", _cache_name("store"), {}),
    ("repro.serve.server", "SimulationService.handle", "serve.http", {}),
    ("repro.serve.http", "read_request", "serve.read", {"post": _request_op}),
    ("repro.serve.protocol", "parse_simulation_request", "serve.parse", {}),
    ("repro.serve.batcher", "JobBatcher.submit", "serve.submit", {"pre": _submit_key}),
    ("repro.runtime.runner", "run_jobs_async", "serve.batch",
     {"pre": _batch_keys, "shared": True}),
    ("repro.eval.experiments", "run_experiment", _experiment_name, {}),
]

_SELF_LAYERS = sorted({
    name for _, _, name, _ in BOUNDARIES
    if isinstance(name, str) and name not in ("serve.read", "serve.submit", "serve.batch")
} | {"runtime.cache_load", "runtime.cache_store", "runtime.tile_cache"})

#: Every per-layer metric, in BENCHMARK.json order; each workload prints
#: all of them (0 where the workload never enters the layer).
PER_LAYER = (
    [(f"{name}_s", "s") for name in _SELF_LAYERS]
    + [
        ("mapping.memo_hit_ratio", "ratio"),
        ("runtime.cache_hit_ratio", "ratio"),
        ("arch.noc.cycles_per_drain_s", "1/s"),
        ("serve.client_s", "s"),
        ("serve.batcher_s", "s"),
        ("serve.wait_s", "s"),
        ("serve.batch_self_s", "s"),
        ("serve.hit_wait_s", "s"),
        ("serve.miss_wait_s", "s"),
        ("serve.hit_batch_s", "s"),
        ("serve.miss_batch_s", "s"),
        ("serve.hit_behind_fresh_ratio", "ratio"),
    ]
    + [(f"eval.E{i}_s", "s") for i in range(1, 15)]
    + [
        ("eval.self_s", "s"),
        ("op_mean_s", "s"),
        ("residual_s", "s"),
        ("trace_overhead_s", "s"),
    ]
)


def install(tracer: Tracer) -> Tracer:
    """Import every traced module, then wrap each boundary."""
    for module, _, _, _ in BOUNDARIES:
        importlib.import_module(module)
    importlib.import_module("repro.serve.server")
    importlib.import_module("repro.eval")
    for module, qualname, name, options in BOUNDARIES:
        tracer.wrap(module, qualname, name, **options)
    return tracer


def zero_metrics() -> dict[str, float]:
    return {name: 0.0 for name, _ in PER_LAYER}


def as_metrics(values: dict[str, float]) -> dict[str, dict]:
    """The JSON ``metrics`` object: every per-layer metric with its unit."""
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def self_by_name(records, times, charge) -> dict[str, float]:
    """Sum self time per metric name over the spans ``charge`` selects."""
    out: dict[str, float] = defaultdict(float)
    for rec in records:
        weight = charge(rec)
        if not weight:
            continue
        name = rec["name"]
        if name.startswith("eval.E"):
            name = "eval.self"
        elif name == "op":
            name = "residual"
        elif name == "serve.read":
            name = "serve.http"  # reading the request is the handler's own work
        out[name] += weight * times[rec["id"]]
    return out


def ratio_metrics(records, weight=lambda rec: 1) -> dict[str, float]:
    """Memo and cache hit ratios plus simulated NoC cycles per drain second."""
    by_id = {rec["id"]: rec for rec in records}
    map_calls = map_misses = loads = hits = cycles = 0
    drain = 0.0
    for rec in records:
        w = weight(rec)
        if not w:
            continue
        name = rec["name"]
        if name == "mapping.map_tile":
            map_calls += w
        elif name == "mapping.algorithm":
            parent = by_id.get(rec["parent"])
            if parent is not None and parent["name"] == "mapping.map_tile":
                map_misses += w
        elif name == "runtime.cache_load":
            loads += w
            hits += w * bool(rec["attrs"]["hit"])
        elif name == "arch.noc.drain":
            cycles += w * rec["attrs"]["cycles"]
            drain += w * (rec["end"] - rec["start"])
    return {
        "mapping.memo_hit_ratio": 1 - map_misses / map_calls if map_calls else 0.0,
        "runtime.cache_hit_ratio": hits / loads if loads else 0.0,
        "arch.noc.cycles_per_drain_s": cycles / drain if drain else 0.0,
    }


def tree_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics for sequential ops rooted at spans named ``op``.

    Every span belongs to exactly one op, so each layer's metric is its
    summed self time over the number of ops, and the layers plus
    ``residual_s`` (the root's own self time) add up to ``op_mean_s``.
    """
    roots = [rec for rec in records if rec["name"] == "op"]
    if not roots:
        raise ValueError("no op spans recorded")
    n = len(roots)
    times = self_times(records)
    metrics = zero_metrics()
    for name, total in self_by_name(records, times, lambda rec: rec["op"] is not None).items():
        metrics[f"{name}_s"] = total / n
    for rec in records:
        if rec["name"].startswith("eval.E"):
            metrics[f"{rec['name']}_s"] += (rec["end"] - rec["start"]) / n
    metrics.update(ratio_metrics(records))
    metrics["op_mean_s"] = sum(r["end"] - r["start"] for r in roots) / n
    return metrics
