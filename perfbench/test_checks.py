"""The benchmark's own tests: every output check fails on a perturbed result.

Outputs here are built from the closed forms and properties themselves,
never from stored program output.  Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

ACCS = ["hygcn", "awb-gcn", "gcnax", "regnn", "flowgnn", "aurora"]
GRAPHS = {
    "cora": {"vertices": 2708, "edges": 10556, "layers": [[1433, 64], [64, 7]]},
    "reddit": {"vertices": 2330, "edges": 116069, "layers": [[602, 64], [64, 41]]},
}


def paper_payload() -> dict:
    grid = {}
    for ds, g in GRAPHS.items():
        forms = checks.gcn_closed_forms(g["vertices"], g["edges"], g["layers"])
        for rank, acc in enumerate(ACCS):
            grid[f"{ds}/{acc}"] = {
                "add_ops": forms["add_ops"] - (1000 if acc == "regnn" else 0),
                "mac_ops": forms["min_mac_ops"] * 2,
                "ppu_ops": forms["ppu_ops"],
                "dram_bytes": 10**6 * (len(ACCS) - rank),
                "total_seconds": 1e-3 * (len(ACCS) - rank),
                "num_tiles": 2,
            }
    models = [f"m{i}" for i in range(checks.TABLE_II_MODELS)]
    return {
        "model": "gcn",
        "datasets": list(GRAPHS),
        "accelerators": ACCS,
        "graphs": copy.deepcopy(GRAPHS),
        "grid": grid,
        "array_k": 32,
        "e8_reconfiguration_cycles": 63,
        "zoo_models": models,
        "e13_aurora_cycles": {m: 1e5 for m in models},
        "e14_ratios": [1.4, 1.8, 2.0],
        "e12": {b: [50.0, 60.0] for b in checks.PAPER_E12},
    }


def test_closed_forms_from_sizes():
    forms = checks.gcn_closed_forms(10, 30, [[4, 3], [3, 2]])
    assert forms == {"ppu_ops": 10 * 3 + 10 * 2, "add_ops": 30 * 4 + 30 * 3,
                     "min_mac_ops": 10 * 12 + 10 * 6}


def test_paper_payload_passes():
    assert checks.check_paper(paper_payload()) == ([], [])


@pytest.mark.parametrize("cell,field,delta", [
    ("cora/hygcn", "add_ops", 1),
    ("cora/aurora", "add_ops", -1),
    ("cora/gcnax", "ppu_ops", 7),
    ("reddit/flowgnn", "mac_ops", 5),
    ("cora/regnn", "add_ops", 2000),  # ReGNN may only remove adds
])
def test_perturbed_grid_counts_fail(cell, field, delta):
    payload = paper_payload()
    payload["grid"][cell][field] += delta
    problems, known = checks.check_paper(payload)
    assert problems and not known


def test_mac_below_combination_minimum_fails():
    payload = paper_payload()
    for acc in ACCS:
        payload["grid"][f"cora/{acc}"]["mac_ops"] = 5
    problems, _ = checks.check_paper(payload)
    assert any("mac_ops 5 <" in line for line in problems)


def test_aurora_reddit_undercount_is_the_known_fault():
    payload = paper_payload()
    payload["grid"]["reddit/aurora"]["add_ops"] //= 4
    payload["grid"]["reddit/aurora"]["mac_ops"] -= 10**6
    problems, known = checks.check_paper(payload)
    assert not problems
    assert len(known) == 2


@pytest.mark.parametrize("edit", [
    lambda p: p.update(e8_reconfiguration_cycles=64),
    lambda p: p.update(array_k=16),
    lambda p: p["e13_aurora_cycles"].pop("m3"),
    lambda p: p["e13_aurora_cycles"].update(m1=0.0),
    lambda p: p["e13_aurora_cycles"].update(m1=float("nan")),
    lambda p: p.update(e14_ratios=[1.0, 3.0]),
    lambda p: p.update(e14_ratios=[1 / 3]),
    lambda p: p.update(e14_ratios=[]),
    lambda p: p.update(model="gin"),
])
def test_perturbed_experiments_fail(edit):
    payload = paper_payload()
    edit(payload)
    problems, _ = checks.check_paper(payload)
    assert problems


def test_fidelity_reports_broken_shape_rows():
    payload = paper_payload()
    assert all("BROKEN" not in line for line in checks.paper_fidelity(payload))
    payload["grid"]["cora/aurora"]["total_seconds"] = 1.0
    assert any("fastest" in line and "BROKEN" in line for line in checks.paper_fidelity(payload))


def calib_point(**edits) -> dict:
    point = {"measured": 200, "predicted": 300, "ratio": 1.5, "packets": 500,
             "flits": 900, "stall_events": 3, "tile_cycles": 400}
    point.update(edits)
    return point


def test_calibration_point_passes():
    assert checks.check_calibration_point("p", calib_point()) == ([], [])
    assert checks.check_calibration_point("p", calib_point(), band_fault=True) == ([], [])


@pytest.mark.parametrize("edits", [
    {"packets": 0},
    {"flits": 499},
    {"predicted": 600, "ratio": 3.0},
    {"predicted": 66, "ratio": 0.33},
    {"ratio": 1.2},
])
def test_perturbed_calibration_point_fails(edits):
    problems, known = checks.check_calibration_point("p", calib_point(**edits))
    assert problems and not known


@pytest.mark.parametrize("edits", [
    {"predicted": 600, "ratio": 3.0},
    {"predicted": 66, "ratio": 0.33},
])
def test_band_fault_counts_as_known(edits):
    problems, known = checks.check_calibration_point("p", calib_point(**edits), band_fault=True)
    assert problems == [] and len(known) == 1


@pytest.mark.parametrize("edits", [{"packets": 0}, {"flits": 499}, {"ratio": 1.2}])
def test_band_fault_tolerates_nothing_else(edits):
    problems, known = checks.check_calibration_point("p", calib_point(**edits), band_fault=True)
    assert problems and not known


def test_oracle_comparison():
    assert checks.same_payload("p", calib_point(), calib_point()) == []
    assert checks.same_payload("p", calib_point(), calib_point(stall_events=4))


def serve_case():
    forms = checks.gcn_closed_forms(100, 400, [[50, 16], [16, 7]])
    result = {"counters": {"add_ops": forms["add_ops"], "ppu_ops": forms["ppu_ops"],
                           "mac_ops": forms["min_mac_ops"] + 4000}, "total_seconds": 1e-4}
    requests = [
        {"key": "w", "status": 200, "warm": True, "cached": True, "result": result},
        {"key": "w", "status": 200, "warm": True, "cached": True, "result": copy.deepcopy(result)},
        {"key": "f", "status": 200, "warm": False, "cached": False, "result": copy.deepcopy(result)},
    ]
    direct = {"f": {**copy.deepcopy(result), "_exec": {"tiles": 2}}}
    spec = {"accelerator": "aurora", **forms}
    return requests, direct, {"w": dict(spec), "f": dict(spec)}


def test_serve_case_passes():
    assert checks.check_serve(*serve_case()) == []


@pytest.mark.parametrize("edit", [
    lambda r, d, f: r[0].update(status=503),
    lambda r, d, f: r[1].update(cached=False),
    lambda r, d, f: r[2].update(cached=True),
    lambda r, d, f: r[1]["result"].update(total_seconds=2e-4),
    lambda r, d, f: d["f"].update(total_seconds=3e-4),
    lambda r, d, f: r[2]["result"]["counters"].update(add_ops=1),
    lambda r, d, f: [x["result"]["counters"].update(ppu_ops=1) for x in r[:2]],
])
def test_perturbed_serve_outputs_fail(edit):
    case = serve_case()
    edit(*case)
    assert checks.check_serve(*case)


def test_wrap_reaches_every_caller_and_restores():
    import repro.graphs.datasets as datasets
    import repro.runtime.executor as executor
    import repro.runtime.jobs as jobs

    original_load, original_exec = datasets.load_dataset, jobs.execute_job
    tracer = Tracer()
    tracer.wrap("repro.graphs.datasets", "load_dataset", "graphs.load_dataset")
    tracer.wrap("repro.runtime.jobs", "execute_job", "runtime.execute_job")
    try:
        assert jobs.load_dataset is datasets.load_dataset is not original_load
        # A default argument is a place callers look the function up too.
        assert executor.SerialExecutor.run.__defaults__[0] is jobs.execute_job
        root, token = tracer.open("op", op=7)
        jobs.execute_job(jobs.SimJob(dataset="cora", scale=0.05, accelerator="gcnax"))
        tracer.close(root, token)
    finally:
        tracer.restore()
    assert jobs.load_dataset is original_load and datasets.load_dataset is original_load
    assert executor.SerialExecutor.run.__defaults__[0] is original_exec
    names = [s.name for s in tracer.spans]
    assert names == ["graphs.load_dataset", "runtime.execute_job", "op"]
    assert all(s.op == 7 for s in tracer.spans)
    assert tracer.spans[0].parent is tracer.spans[1] and tracer.spans[1].parent is root


def test_self_times_and_layer_split_add_up():
    spans = [
        {"id": 1, "parent": None, "op": 0, "name": "op", "start": 0.0, "end": 10.0, "attrs": None},
        {"id": 2, "parent": 1, "op": 0, "name": "eval.E3", "start": 1.0, "end": 9.0, "attrs": None},
        {"id": 3, "parent": 2, "op": 0, "name": "graphs.load_dataset", "start": 2.0, "end": 5.0, "attrs": None},
        {"id": 4, "parent": 2, "op": 0, "name": "mapping.map_tile", "start": 5.0, "end": 8.0, "attrs": None},
        {"id": 5, "parent": 4, "op": 0, "name": "mapping.algorithm", "start": 5.5, "end": 7.5, "attrs": None},
        {"id": 6, "parent": 2, "op": 0, "name": "mapping.map_tile", "start": 8.0, "end": 8.5, "attrs": None},
    ]
    assert self_times(spans) == {1: 2.0, 2: 1.5, 3: 3.0, 4: 1.0, 5: 2.0, 6: 0.5}
    m = layers.tree_metrics(spans)
    assert m["eval.E3_s"] == 8.0 and m["eval.self_s"] == 1.5 and m["residual_s"] == 2.0
    assert m["mapping.memo_hit_ratio"] == 0.5
    parts = ["graphs.load_dataset_s", "mapping.map_tile_s", "mapping.algorithm_s", "eval.self_s", "residual_s"]
    assert sum(m[p] for p in parts) == m["op_mean_s"] == 10.0
