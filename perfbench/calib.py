"""``cycle-calib``: analytical-vs-flit calibration points, one op each.

One op is one :func:`repro.eval.calibration.run_calibration_job` call:
a synthetic power-law tile runs through the flit-level NoC engine
(``arch.noc.network``: route warm-up, inject, drain) and through the
analytical NoC model.  Each round holds a seeded mix of array size (8×8
and 16×16), Table-II model, graph size, degree, skew and locality, plus
a fixed set of wide points — large sparse and small dense tiles —
on which the analytical model is known to leave the (1/3, 3) band.
The workload touches no dataset registry, result cache or serve code.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import time

from checks import check_calibration_point, same_payload
from common import metric, peak_rss_mb, percentile

IMPORTS = ["repro.eval.calibration", "repro.core.cycle_engine", "repro.arch.noc.analytical"]

MODELS = (
    "gcn", "graphsage-mean", "gin", "commnet", "vanilla-attention",
    "agnn", "ggcn", "graphsage-pool", "edgeconv-1",
)
SETUP_REPEATS = 3
WARM_POINTS = 2
ORACLE_SAMPLE = 2

#: Fixed points outside the seeded mix's size and density range, run in
#: every round whatever the seed.  The first four leave the (1/3, 3)
#: band today (ratios 0.323, 0.273, 3.785 and 3.796) and are counted as
#: failed ops under :data:`checks.CALIB_BAND_FAULT`; the last two sit
#: just inside it (0.347 and 2.377).  A change that mends the model
#: lowers ``failed``; one that widens its error raises it.
WIDE_POINTS = (
    dict(model="agnn", num_vertices=425, num_edges=850, exponent=1.91, locality=0.27,
         seed=626809298, array_k=8, in_features=8, out_features=8),
    dict(model="commnet", num_vertices=528, num_edges=1056, exponent=2.01, locality=0.3,
         seed=773949750, array_k=8, in_features=32, out_features=8),
    dict(model="gcn", num_vertices=66, num_edges=528, exponent=2.23, locality=0.57,
         seed=243505419, array_k=16, in_features=32, out_features=16),
    dict(model="gin", num_vertices=131, num_edges=1048, exponent=2.08, locality=0.7,
         seed=597664817, array_k=16, in_features=32, out_features=8),
    dict(model="gin", num_vertices=557, num_edges=1114, exponent=2.1, locality=0.41,
         seed=980325629, array_k=8, in_features=8, out_features=16),
    dict(model="ggcn", num_vertices=62, num_edges=372, exponent=2.07, locality=0.63,
         seed=856102357, array_k=8, in_features=16, out_features=8),
)


def wide_jobs() -> list:
    from repro.eval.calibration import CalibrationJob

    return [CalibrationJob(num_features=16, **point) for point in WIDE_POINTS]


def point_stream(seed: int, stream: str):
    """Endless calibration points in rounds: one seeded point per
    (model, array size) pair plus the fixed :data:`WIDE_POINTS`, in
    shuffled order, so every run sees the same mix.  Seeded points stay
    where the band holds — 150–240 vertices, 4–5 edges per vertex, 8 or
    16 input features — so the share of failed ops does not depend on the
    seed; their graph size, shape, widths and graph seed are drawn anew
    for every point, so no two share a tile."""
    from repro.eval.calibration import CalibrationJob

    rng = random.Random(f"{seed}/{stream}")
    pairs = [(model, k) for model in MODELS for k in (8, 16)]
    wide = wide_jobs()
    while True:
        rng.shuffle(pairs)
        jobs = wide + [
            CalibrationJob(
                model=model,
                num_vertices=(v := rng.randint(150, 240)),
                num_edges=v * rng.randint(4, 5),
                exponent=round(rng.uniform(1.9, 2.4), 2),
                locality=round(rng.uniform(0.3, 0.8), 2),
                num_features=16,
                seed=rng.randrange(1 << 30),
                array_k=k,
                in_features=rng.choice((8, 16)),
                out_features=rng.choice((8, 16)),
            )
            for model, k in pairs
        ]
        rng.shuffle(jobs)
        yield jobs


def measure(stream, seconds: float, tracer=None, op_base: int = 0) -> dict:
    """Run whole rounds of points until ``seconds`` have passed."""
    from repro.eval.calibration import run_calibration_job

    times, done, errors = [], [], []
    start = time.perf_counter()
    jobs = iter(())
    while True:
        job = next(jobs, None)
        if job is None:
            if time.perf_counter() - start >= seconds:
                break
            jobs = iter(next(stream))
            continue
        if tracer is not None:
            root, token = tracer.open("op", op=op_base + len(times) + len(errors))
        t0 = time.perf_counter()
        try:
            payload = run_calibration_job(job)
        except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
            errors.append(f"{job.label()}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if tracer is not None:
                tracer.close(root, token)
        times.append(time.perf_counter() - t0)
        done.append((job, payload))
    return {"times": times, "done": done, "errors": errors,
            "wall": time.perf_counter() - start}


def check(ctx, done) -> tuple[list[str], list[str]]:
    """``(problems, known_fault_hits)`` over every completed point."""
    from repro.eval.calibration import run_calibration_job

    wide = set(wide_jobs())
    problems, known = [], []
    for job, payload in done:
        bad, hit = check_calibration_point(job.label(), payload, band_fault=job in wide)
        problems += bad
        known += hit
    rng = random.Random(f"{ctx.seed}/oracle")
    for job, payload in rng.sample(done, min(ORACLE_SAMPLE, len(done))):
        oracle = run_calibration_job(dataclasses.replace(job, noc_engine="reference"))
        problems += same_payload(job.label(), payload, oracle)
    return problems, known


def run(ctx) -> dict:
    from repro.eval.calibration import run_calibration_job

    # Warm-up points do not depend on --seed, so set-up time does not
    # vary with the seed's mix.
    setups = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        for job in next(point_stream(0, f"warm{rep}"))[:WARM_POINTS]:
            run_calibration_job(job)
        setups.append(time.perf_counter() - t0)
    stream = point_stream(ctx.seed, "timed")

    if not ctx.trace:
        res = measure(stream, ctx.seconds)
        traced = None
    else:
        res = measure(stream, ctx.seconds / 2)
        import layers
        from tracing import Tracer

        tracer = layers.install(Tracer())
        try:
            traced = measure(stream, ctx.seconds / 2, tracer, op_base=1)
        finally:
            tracer.restore()

    done = res["done"] + (traced["done"] if traced else [])
    errors = res["errors"] + (traced["errors"] if traced else [])
    problems, known = check(ctx, done)
    for line in problems[:20]:
        ctx.note(f"CHECK FAILED: {line}")
    for line in sorted(set(known)):
        ctx.note(f"KNOWN FAULT (op counted as failed): {line}")
    for line in errors[:20]:
        ctx.note(f"OP FAILED: {line}")
    times = res["times"]
    ctx.note(
        f"cycle-calib: {len(times)} timed points, p50 {statistics.median(times):.4f}s, "
        f"p90 {percentile(times, 0.9):.4f}s, "
        f"NoC {sum(p['measured'] for _, p in res['done']) / sum(times):,.0f} simulated cycles/s"
    )
    out = {
        "correct": not problems,
        "attempted": len(done) + len(errors),
        "failed": len(errors) + len(known),
    }
    if traced is None:
        out["metrics"] = {
            "setup_s": metric(ctx.boot_s + statistics.median(setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
            "ops_per_s": metric(len(times) / res["wall"], "1/s"),
            "op_p50_s": metric(statistics.median(times), "s"),
        }
    else:
        out["metrics"] = traced_metrics(ctx, tracer, statistics.median(times),
                                        statistics.median(traced["times"]))
    return out


def traced_metrics(ctx, tracer, untraced_p50: float, traced_p50: float) -> dict:
    """Per-layer metrics from the span file of the traced half."""
    import layers
    from tracing import read_spans, write_spans

    path = ctx.spans_path or ctx.rundir / "spans.jsonl"
    write_spans(tracer.spans, path)
    values = layers.tree_metrics(read_spans(path))
    values["trace_overhead_s"] = traced_p50 - untraced_p50
    return layers.as_metrics(values)
