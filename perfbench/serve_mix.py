"""``serve-mix``: cache hits and fresh jobs through one simulation service.

The service runs in this process on a ``ServerThread``, built by
``repro serve``'s own command function from its defaults (result cache
and per-tile cache in a fresh directory, tracing on at rate 1.0, serial
executor, default batch window), so a change to a default shows here.  Two closed-loop clients — one request in flight each, the next
sent when the reply is read — follow seeded rounds of three requests
for pre-warmed keys (cache reads) and one first-seen Aurora GCN job (a
dataset generation, a simulation and a cache write).  Both kinds share
one batcher.  ``op_p50_s`` is the median latency of a fresh job.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import statistics
import threading
import time
from collections import defaultdict

from checks import check_serve, gcn_closed_forms
from common import metric, peak_rss_mb, percentile

IMPORTS = ["repro.cli", "repro.serve.server", "repro.runtime.jobs", "repro.runtime.cache"]

CLIENTS = 2
HITS_PER_ROUND = 3
WARM_KEYS = 8
GRAPHS_PER_CLIENT = 16
SETUP_REPEATS = 3
DIRECT_SAMPLE = 3
ACCELERATORS = ("hygcn", "awb-gcn", "gcnax", "regnn", "flowgnn", "aurora")
DATASETS = ("cora", "citeseer")
SCALE = 0.2
REQUEST_TIMEOUT_S = 60


def _spec(dataset, seed, accelerator, hidden, mapping="degree-aware") -> dict:
    return {"model": "gcn", "dataset": dataset, "scale": SCALE, "seed": seed,
            "accelerator": accelerator, "hidden": hidden, "num_layers": 2,
            "mapping": mapping}


def warm_specs(seed: int) -> list[dict]:
    """The pre-warmed small-job set every hit is drawn from.

    Its make-up is fixed (accelerators, datasets and widths in turn); the
    seed picks the graphs.
    """
    rng = random.Random(f"{seed}/warm")
    return [
        _spec(DATASETS[i % len(DATASETS)], 9_000_000 + rng.randrange(10**6),
              ACCELERATORS[i % len(ACCELERATORS)], (16, 32, 64)[i % 3])
        for i in range(WARM_KEYS)
    ]


def rounds(seed: int, stream: str, client: int, warm: list[dict]):
    """Endless seeded rounds of one client: 3 hits and 1 first-seen job.

    Fresh jobs are Aurora GCN jobs on a pool of graphs private to the
    client (so no key is ever shared or repeated), varying hidden width
    and mapping policy; the pool outnumbers the dataset snapshot memo,
    so most fresh jobs also generate their graph.
    """
    rng = random.Random(f"{seed}/{stream}/{client}")
    base = (1 + client) * 10**6 + (0 if stream == "timed" else 500_000)
    pool = [(DATASETS[i % len(DATASETS)], base + rng.randrange(500_000))
            for i in range(GRAPHS_PER_CLIENT)]
    seen: set = set()
    while True:
        while True:
            dataset, gseed = rng.choice(pool)
            fresh = (dataset, gseed, rng.randint(8, 128),
                     rng.choice(("degree-aware", "hashing")))
            if fresh not in seen:
                seen.add(fresh)
                break
        ops = [("hit", rng.choice(warm)) for _ in range(HITS_PER_ROUND)]
        ops.insert(rng.randrange(HITS_PER_ROUND + 1),
                   ("miss", _spec(fresh[0], fresh[1], "aurora", fresh[2], fresh[3])))
        yield ops


class Service:
    """One ``repro serve``-configured service on a thread of this process.

    The service is built by ``repro.cli._cmd_serve`` itself, with
    ``serve_forever`` swapped for a stub that hands the built service
    back instead of serving it, so no copy of the set-up can drift from
    what ``repro serve`` does.
    """

    def __init__(self, cache_dir) -> None:
        from repro import cli
        from repro.runtime.jobs import ENV_TILE_CACHE_DIR
        from repro.serve import server

        args = cli.build_parser().parse_args(["serve", "--port", "0", "--cache-dir", str(cache_dir)])
        built = {}

        async def hand_back(service, host, port, *, drain_timeout):
            built.update(service=service, host=host, port=port, drain_timeout=drain_timeout)
            return 0

        self._env = (ENV_TILE_CACHE_DIR, os.environ.get(ENV_TILE_CACHE_DIR))
        serve_forever = server.serve_forever
        server.serve_forever = hand_back
        try:
            cli._cmd_serve(args)
        finally:
            server.serve_forever = serve_forever
        self.thread = server.ServerThread(built["service"], built["host"], built["port"],
                                          drain_timeout=built["drain_timeout"])
        self.host, self.port = self.thread.start()

    def stop(self) -> int | None:
        """Stop through the drain path; the exit code is 0 when it drained."""
        code = self.thread.stop()
        name, old = self._env
        if old is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = old
        return code

    def request(self, spec: dict, op: int) -> dict:
        import layers

        body = json.dumps(spec).encode()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("POST", "/simulate", body,
                         {"Content-Type": "application/json", layers.OP_HEADER: str(op)})
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        payload = json.loads(data)
        return {"status": resp.status, "key": payload.get("key"),
                "cached": payload.get("cached"), "result": payload.get("result")}


def drive(service, seconds: float, schedules, tracer=None, first_op: int = 0,
          min_rounds: int = 0) -> dict:
    """Both clients run whole rounds until ``seconds`` have passed."""
    ops = itertools.count(first_op)
    lock = threading.Lock()
    records: list[dict] = []
    errors: list[str] = []
    start = time.perf_counter()

    def client(schedule) -> None:
        done = 0
        try:
            while done < min_rounds or time.perf_counter() - start < seconds:
                done += 1
                for kind, spec in next(schedule):
                    with lock:
                        op = next(ops)
                    if tracer is not None:
                        root, token = tracer.open("op", op=op)
                    t0 = time.perf_counter()
                    try:
                        rec = service.request(spec, op)
                    finally:
                        if tracer is not None:
                            tracer.close(root, token)
                    rec.update(kind=kind, spec=spec, op=op, latency=time.perf_counter() - t0)
                    with lock:
                        records.append(rec)
        except Exception as exc:  # noqa: BLE001 — reported as a failed check
            errors.append(f"client: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=client, args=(s,)) for s in schedules]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return {"records": records, "errors": errors, "wall": time.perf_counter() - start}


def start_service(ctx, name: str, warm: list[dict]) -> tuple:
    """Set-up: start the service, pre-warm the hit set, run a warm-up round."""
    t0 = time.perf_counter()
    service = Service(ctx.rundir / name)
    # Op ids of set-up requests lie apart from the timed ops' (from 1 up).
    records = [dict(service.request(spec, -1), kind="warm", spec=spec) for spec in warm]
    warmups = drive(service, 0, [rounds(ctx.seed, f"warmup-{name}", c, warm) for c in range(CLIENTS)],
                    first_op=-1000, min_rounds=1)
    records += warmups["records"]
    return service, time.perf_counter() - t0, records, warmups["errors"]


def run(ctx) -> dict:
    warm = warm_specs(ctx.seed)
    setups, problems, checked = [], [], []
    for rep in range(SETUP_REPEATS):
        service, seconds, records, errors = start_service(ctx, f"setup{rep}", warm)
        setups.append(seconds)
        problems += errors
        checked += [r for r in records if r["kind"] != "warm"]
        if rep < SETUP_REPEATS - 1:
            if service.stop() != 0:
                problems.append("server did not drain cleanly")

    schedules = [rounds(ctx.seed, "timed", c, warm) for c in range(CLIENTS)]
    tracer = None
    if not ctx.trace:
        res = drive(service, ctx.seconds, schedules)
    else:
        res = drive(service, ctx.seconds / 2, schedules)
        import layers
        from tracing import Tracer

        if service.stop() != 0:
            problems.append("server did not drain cleanly")
        tracer = layers.install(Tracer())
        try:
            service, _, _, errors = start_service(ctx, "traced", warm)
            problems += errors
            traced = drive(service, ctx.seconds / 2, schedules, tracer, first_op=1)
        finally:
            tracer.restore()
    if service.stop() != 0:
        problems.append("server did not drain cleanly")

    timed = res["records"] + (traced["records"] if tracer else [])
    problems += res["errors"] + (traced["errors"] if tracer else [])
    problems += check(ctx, timed + checked)
    for line in problems[:20]:
        ctx.note(f"CHECK FAILED: {line}")

    hits = [r["latency"] for r in res["records"] if r["kind"] == "hit"]
    misses = [r["latency"] for r in res["records"] if r["kind"] == "miss"]
    ctx.note(
        f"serve-mix: {len(hits)} hits p50 {statistics.median(hits) * 1e3:.2f} ms "
        f"p90 {percentile(hits, 0.9) * 1e3:.2f} ms | {len(misses)} misses "
        f"p50 {statistics.median(misses) * 1e3:.2f} ms | "
        f"{len(res['records']) / res['wall']:.1f} req/s"
    )
    out = {
        "correct": not problems,
        "attempted": len(timed),
        "failed": sum(r["status"] != 200 for r in timed),
    }
    if tracer is None:
        out["metrics"] = {
            "setup_s": metric(ctx.boot_s + statistics.median(setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
            "ops_per_s": metric(len(res["records"]) / res["wall"], "1/s"),
            # The fresh job, not the hit: hits queue behind the other
            # client's batches, so their median moves with host speed
            # more than in proportion (on a 2-vCPU host, two of three
            # ten-run sets spread by more than 25 %).
            # Hit time shows in ops_per_s, as hits are half of a round.
            "op_p50_s": metric(statistics.median(misses), "s"),
        }
    else:
        traced_misses = [r["latency"] for r in traced["records"] if r["kind"] == "miss"]
        out["metrics"] = traced_metrics(ctx, tracer, traced["records"],
                                        statistics.median(traced_misses) - statistics.median(misses))
    return out


def check(ctx, records: list[dict]) -> list[str]:
    """Serve-mix output checks (after the server has stopped)."""
    from repro.graphs.datasets import dataset_profile, load_dataset
    from repro.runtime.jobs import SimJob, execute_job

    requests = [
        {"key": r["key"], "status": r["status"], "warm": r["kind"] == "hit",
         "cached": r["cached"], "result": r["result"]}
        for r in records
    ]
    specs = {r["key"]: r["spec"] for r in records if r["status"] == 200}
    forms, sizes = {}, {}
    for key, spec in sorted(specs.items(), key=lambda kv: (kv[1]["dataset"], kv[1]["seed"])):
        prof = dataset_profile(spec["dataset"])
        graph_id = (spec["dataset"], spec["scale"], spec["seed"])
        if graph_id not in sizes:
            graph = load_dataset(spec["dataset"], scale=spec["scale"], seed=spec["seed"])
            sizes[graph_id] = (graph.num_vertices, graph.num_edges)
        vertices, edges = sizes[graph_id]
        widths = [(prof.num_features, spec["hidden"]), (spec["hidden"], prof.num_classes)]
        forms[key] = {"accelerator": spec["accelerator"],
                      **gcn_closed_forms(vertices, edges, widths)}
    rng = random.Random(f"{ctx.seed}/direct")
    warm_keys = sorted({r["key"] for r in records if r["kind"] == "hit" and r["status"] == 200})
    fresh_keys = sorted({r["key"] for r in records if r["kind"] == "miss" and r["status"] == 200})
    sample = rng.sample(warm_keys, min(1, len(warm_keys))) + rng.sample(
        fresh_keys, min(DIRECT_SAMPLE - 1, len(fresh_keys)))
    direct = {key: execute_job(SimJob.from_request(specs[key])) for key in sample}
    return check_serve(requests, direct, forms)


def traced_metrics(ctx, tracer, records: list[dict], overhead: float) -> dict:
    """Per-request layer split of the traced half, from its span file.

    A request's time is its client-side latency.  It splits into the
    client (latency minus ``SimulationService.handle``), the handler's
    own time, request parsing, the wait from ``JobBatcher.submit`` until
    the batch holding the job starts, the batch itself (its own time
    plus every layer under it), and the batcher's hand-back after the
    batch.  A batch is shared: each request it carried is charged the
    whole batch, since each one waited for all of it.
    """
    import layers
    from tracing import read_spans, self_times, write_spans

    path = ctx.spans_path or ctx.rundir / "spans.jsonl"
    write_spans(tracer.spans, path)
    spans = read_spans(path)
    times = self_times(spans)
    children = defaultdict(list)
    for rec in spans:
        if rec["parent"] is not None:
            children[rec["parent"]].append(rec)
    by_op = defaultdict(dict)
    batches = []
    for rec in spans:
        if rec["name"] == "serve.batch":
            batches.append(rec)
        elif rec["op"] is not None and rec["name"] in ("op", "serve.http", "serve.parse", "serve.submit"):
            by_op[rec["op"]][rec["name"]] = rec
    batches.sort(key=lambda b: b["start"])

    def tree(batch):
        stack, out = [batch], []
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(children[node["id"]])
        return out

    trees = {b["id"]: layers.self_by_name(tree(b), times, lambda rec: 1) for b in batches}
    kinds = {r["op"]: r["kind"] for r in records}
    miss_keys = {r["key"] for r in records if r["kind"] == "miss"}
    totals: dict = defaultdict(float)
    per_kind = {kind: defaultdict(list) for kind in ("hit", "miss")}
    behind = 0
    for op, parts in by_op.items():
        kind = kinds.get(op)
        if kind is None or not {"op", "serve.http", "serve.submit"} <= parts.keys():
            continue
        root, handle, submit = parts["op"], parts["serve.http"], parts["serve.submit"]
        key = submit["attrs"]["key"]
        holding = [b for b in batches if key in b["attrs"]["keys"]]
        later = [b for b in holding if b["start"] >= submit["start"]]
        batch = later[0] if later else holding[-1]
        wait = max(0.0, batch["start"] - submit["start"])
        span = batch["end"] - batch["start"]
        totals["serve.client"] += (root["end"] - root["start"]) - (handle["end"] - handle["start"])
        totals["serve.http"] += times[handle["id"]] + sum(
            times[c["id"]] for c in children[handle["id"]] if c["name"] == "serve.read")
        if "serve.parse" in parts:
            totals["serve.parse"] += times[parts["serve.parse"]["id"]]
        totals["serve.wait"] += wait
        totals["serve.batcher"] += (submit["end"] - submit["start"]) - wait - span
        for name, value in trees[batch["id"]].items():
            totals[name] += value
        totals["op_mean"] += root["end"] - root["start"]
        totals["n"] += 1
        per_kind[kind]["wait"].append(wait)
        per_kind[kind]["batch"].append(span)
        if kind == "hit":
            fresh_batches = [b for b in batches if miss_keys & set(b["attrs"]["keys"])]
            behind += any(b["start"] < batch["start"] + span and b["end"] > submit["start"]
                          and (b is batch or b["start"] < batch["start"]) for b in fresh_batches)
    n = totals.pop("n")
    values = layers.zero_metrics()
    for name, total in totals.items():
        values[f"{name}_s"] = total / n
    values["serve.batch_self_s"] = values.pop("serve.batch_s", 0.0)
    values.update(layers.ratio_metrics([rec for b in batches for rec in tree(b)]))
    for kind in ("hit", "miss"):
        values[f"serve.{kind}_wait_s"] = statistics.fmean(per_kind[kind]["wait"])
        values[f"serve.{kind}_batch_s"] = statistics.fmean(per_kind[kind]["batch"])
    layer_sum = sum(v for name, v in values.items()
                    if name.endswith("_s") and name not in NOT_IN_SUM)
    values["residual_s"] = values["op_mean_s"] - layer_sum
    values["trace_overhead_s"] = overhead
    hits = len(per_kind["hit"]["wait"])
    values["serve.hit_behind_fresh_ratio"] = behind / hits
    ctx.note(f"serve-mix traced: {behind} of {hits} hits waited behind a fresh job's batch")
    return layers.as_metrics(values)


#: Per-layer values that are not parts of a request's time.
NOT_IN_SUM = {
    "op_mean_s", "residual_s", "trace_overhead_s", "arch.noc.cycles_per_drain_s",
    "serve.hit_behind_fresh_ratio",
    "serve.hit_wait_s", "serve.miss_wait_s", "serve.hit_batch_s", "serve.miss_batch_s",
}
