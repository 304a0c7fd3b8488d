"""Output checks: closed forms and properties, never stored copies of output.

Every function here is pure — it takes the program's outputs as plain
data and returns a list of problems (empty when the output is right) —
so ``test_checks.py`` can show that each check catches a perturbed
result.  The workloads call them after their timed phase.
"""

from __future__ import annotations

import math

__all__ = [
    "KNOWN_FAULT",
    "CALIB_BAND_FAULT",
    "gcn_closed_forms",
    "check_gcn_counts",
    "check_paper",
    "paper_fidelity",
    "check_calibration_point",
    "same_payload",
    "check_serve",
]

#: The one fault the ``paper`` workload tolerates (as failed ops, not as
#: a wrong result): ``_tile_outcome`` in ``core/simulator.py`` charges a
#: tile for its induced subgraph only, so on reddit@0.01 — the only
#: dataset of the grid that needs several tiles — Aurora drops the adds
#: and MACs of the 84,604 tile-crossing edges.
KNOWN_FAULT = {("reddit", "aurora", "add_ops"), ("reddit", "aurora", "mac_ops")}

#: The fault the ``cycle-calib`` workload tolerates on its fixed wide
#: points (as failed ops): the analytical NoC model leaves the (1/3, 3)
#: band of the flit-level engine on large sparse tiles of an 8×8 array
#: (ratio down to 0.27) and on small dense tiles of a 16×16 array fed
#: 32 input features (ratio up to 3.8).
CALIB_BAND_FAULT = "analytical NoC model outside (1/3, 3) of the flit-level engine"

#: The paper's Table II has ten models, all of which Aurora runs.
TABLE_II_MODELS = 10

#: Aurora's array is K×K; §VI-D gives the reconfiguration cost as 2K−1.
ARRAY_K = 32

#: Abstract / E12: average time and energy reduction (%) per baseline.
PAPER_E12 = {
    "hygcn": (85, 89),
    "awb-gcn": (66, 77),
    "gcnax": (47, 42),
    "regnn": (28, 69),
    "flowgnn": (38, 71),
}


def gcn_closed_forms(vertices: int, edges: int, layers) -> dict[str, int]:
    """GCN op counts from |V|, |E| and the layer widths alone.

    One add per edge per input feature (aggregation), one PPU op per
    vertex per output feature (activation), and at least one MAC per
    vertex per weight (combination).
    """
    return {
        "ppu_ops": sum(vertices * f_out for _, f_out in layers),
        "add_ops": sum(edges * f_in for f_in, _ in layers),
        "min_mac_ops": sum(vertices * f_in * f_out for f_in, f_out in layers),
    }


def check_gcn_counts(label: str, accelerator: str, counters: dict, forms: dict) -> list[tuple]:
    """``(label, field, message)`` for each closed form one result breaks."""
    out = []
    if counters["ppu_ops"] != forms["ppu_ops"]:
        out.append((label, "ppu_ops", f"ppu_ops {counters['ppu_ops']} != {forms['ppu_ops']}"))
    if accelerator == "regnn":
        # ReGNN eliminates redundant aggregation: at most the full count.
        if counters["add_ops"] > forms["add_ops"]:
            out.append((label, "add_ops", f"add_ops {counters['add_ops']} > {forms['add_ops']}"))
    elif counters["add_ops"] != forms["add_ops"]:
        out.append((label, "add_ops", f"add_ops {counters['add_ops']} != {forms['add_ops']}"))
    if counters["mac_ops"] < forms["min_mac_ops"]:
        out.append((label, "mac_ops", f"mac_ops {counters['mac_ops']} < {forms['min_mac_ops']}"))
    return out


def check_paper(payload: dict) -> tuple[list[str], list[str]]:
    """``(problems, known_fault_hits)`` for one regenerated paper.

    ``known_fault_hits`` lists the checks that fail through
    :data:`KNOWN_FAULT`; any other failure is a problem.
    """
    failures: list[tuple] = []
    if payload["model"] == "gcn":
        for ds in payload["datasets"]:
            g = payload["graphs"][ds]
            forms = gcn_closed_forms(g["vertices"], g["edges"], g["layers"])
            macs = {}
            for acc in payload["accelerators"]:
                counters = payload["grid"][f"{ds}/{acc}"]
                failures += [
                    (ds, acc, field, msg)
                    for _, field, msg in check_gcn_counts(f"{ds}/{acc}", acc, counters, forms)
                ]
                macs[acc] = counters["mac_ops"]
            # Equal-MAC convention: every accelerator counts the same MACs;
            # the odd one out is the value fewer accelerators report.
            values = list(macs.values())
            common = max(set(values), key=values.count)
            for acc, value in macs.items():
                if value != common:
                    failures.append((ds, acc, "mac_ops", f"mac_ops {value} != {common} (others)"))
    else:
        failures.append(("grid", "-", "model", f"comparison grid model is {payload['model']}, not gcn"))

    cycles = payload["e8_reconfiguration_cycles"]
    if payload["array_k"] != ARRAY_K or cycles != 2 * ARRAY_K - 1:
        failures.append(("E8", "-", "reconfiguration",
                         f"K={payload['array_k']}, {cycles} cycles, want K={ARRAY_K}, {2 * ARRAY_K - 1}"))
    e13 = payload["e13_aurora_cycles"]
    if len(payload["zoo_models"]) != TABLE_II_MODELS or set(e13) != set(payload["zoo_models"]):
        failures.append(("E13", "-", "coverage", f"E13 ran {sorted(e13)}"))
    for model, value in e13.items():
        if not (math.isfinite(value) and value > 0):
            failures.append(("E13", model, "cycles", f"Aurora {model}: {value} cycles"))
    ratios = payload["e14_ratios"]
    if not ratios or not all(1 / 3 < r < 3 for r in ratios):
        failures.append(("E14", "-", "ratio", f"analytical/flit ratios {ratios}"))

    problems, known = [], []
    for ds, acc, field, msg in failures:
        line = f"{ds}/{acc}: {msg}"
        (known if (ds, acc, field) in KNOWN_FAULT else problems).append(line)
    return problems, known


def paper_fidelity(payload: dict) -> list[str]:
    """Measured-vs-paper figures (E12) and the EXPERIMENTS.md shape rows.

    Reported, never failed: a change that corrects the model may move them.
    """
    lines = []
    for base, (t_paper, e_paper) in PAPER_E12.items():
        t, e = payload["e12"][base]
        lines.append(
            f"E12 {base:<8} time reduction {t:5.1f}% (paper {t_paper}%), "
            f"energy {e:5.1f}% (paper {e_paper}%)"
        )
    grid = payload["grid"]
    accs = payload["accelerators"]
    baselines = [a for a in accs if a != "aurora"]

    def holds(pred):
        return all(pred(ds) for ds in payload["datasets"])

    rows = {
        "Aurora lowest DRAM traffic on every dataset": holds(
            lambda ds: all(grid[f"{ds}/aurora"]["dram_bytes"] < grid[f"{ds}/{b}"]["dram_bytes"] for b in baselines)),
        "Aurora fastest on every dataset": holds(
            lambda ds: all(grid[f"{ds}/aurora"]["total_seconds"] < grid[f"{ds}/{b}"]["total_seconds"] for b in baselines)),
        "HyGCN slowest baseline on every dataset": holds(
            lambda ds: all(grid[f"{ds}/hygcn"]["total_seconds"] >= grid[f"{ds}/{b}"]["total_seconds"] for b in baselines)),
    }
    lines += [f"shape: {name}: {'holds' if ok else 'BROKEN'}" for name, ok in rows.items()]
    lines.append("E14 analytical/flit ratios: " + ", ".join(f"{r:.2f}" for r in payload["e14_ratios"]))
    return lines


def check_calibration_point(label: str, payload: dict, band_fault: bool = False
                            ) -> tuple[list[str], list[str]]:
    """Flit-level sanity plus model-vs-simulation agreement for one point.

    Returns ``(problems, known_fault_hits)``.  With ``band_fault`` a ratio
    outside (1/3, 3) is a hit of :data:`CALIB_BAND_FAULT` rather than a
    problem; every other check stays a problem.
    """
    problems, known = [], []
    if payload["packets"] <= 0:
        problems.append(f"{label}: no packets")
    if payload["flits"] < payload["packets"]:
        problems.append(f"{label}: {payload['flits']} flits < {payload['packets']} packets")
    ratio = payload["predicted"] / max(payload["measured"], 1)
    if not (1 / 3 < ratio < 3):
        (known if band_fault else problems).append(
            f"{label}: analytical/flit ratio {ratio:.3f} outside (1/3, 3)")
    if not math.isclose(ratio, payload["ratio"], rel_tol=1e-12):
        problems.append(f"{label}: reported ratio {payload['ratio']} != predicted/measured {ratio}")
    return problems, known


def same_payload(label: str, fast: dict, oracle: dict) -> list[str]:
    """The fast engine must return exactly what the oracle returns."""
    if fast == oracle:
        return []
    diff = sorted(k for k in set(fast) | set(oracle) if fast.get(k) != oracle.get(k))
    return [f"{label}: differs from the oracle in {', '.join(diff)}"]


def check_serve(requests: list[dict], direct: dict[str, dict], forms: dict[str, dict]) -> list[str]:
    """Serve-mix properties.

    ``requests`` holds, per completed request, its ``key``, ``status``,
    ``warm`` (pre-warmed key) flag, ``cached`` flag and ``result``;
    ``direct`` maps sampled keys to ``execute_job`` payloads run in the
    benchmark process; ``forms`` maps every key to its accelerator and
    GCN closed forms.
    """
    out = []
    first: dict[str, dict] = {}
    for i, req in enumerate(requests):
        key = req["key"]
        if req["status"] != 200:
            out.append(f"request {i}: status {req['status']}")
            continue
        if req["warm"] and not req["cached"]:
            out.append(f"request {i}: pre-warmed key {key[:12]} was simulated again")
        if not req["warm"] and req["cached"]:
            out.append(f"request {i}: first-seen key {key[:12]} came from the cache")
        if key in first and first[key] != req["result"]:
            out.append(f"request {i}: result for {key[:12]} differs from an earlier response")
        first.setdefault(key, req["result"])
    for key, payload in direct.items():
        expected = {k: v for k, v in payload.items() if k != "_exec"}
        if first.get(key) != expected:
            out.append(f"key {key[:12]}: served result differs from execute_job")
    for key, result in first.items():
        spec = forms[key]
        out += [msg for _, _, msg in check_gcn_counts(key[:12], spec["accelerator"], result["counters"], spec)]
    return out
