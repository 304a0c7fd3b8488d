#!/usr/bin/env python3
"""Steadiness check: run each workload N times and report the spread.

For every end-to-end metric of BENCHMARK.json this prints the median
and quartiles over N runs (each with its own ``--seed``, each of
BENCHMARK.json's ``run_seconds``) and the spread — the distance between
the quartiles as a share of the median — and flags a spread above the
metric's bound.  It also flags a share of failed ops that is not the
same in every run, and prints the wall time the whole check took.

Run from the root of a checkout:

    python3 perfbench/steady.py --runs 10 --seed-base 100
    python3 perfbench/steady.py --runs 5 --workloads cycle-calib
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` from ``statistics.quantiles(n=4)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 to have quartiles")

    started = time.perf_counter()
    flagged = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        shares = set()
        for i in range(args.runs):
            seed = args.seed_base + i
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add(result["failed"] / result["attempted"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f}s wall, "
                  f"{result['attempted']} ops, {result['failed']} failed, "
                  + ", ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        if len(shares) > 1:
            flagged += 1
            print(f"  FLAG {workload}: failed share differs between runs: {sorted(shares)}")
        for metric in spec["end_to_end"]:
            q1, med, q3, rel = spread(values[metric["name"]])
            over = rel > metric["bound"]
            flagged += over
            print(f"  {workload:<12} {metric['name']:<12} median {med:.5g} {metric['unit']} "
                  f"[q1 {q1:.5g}, q3 {q3:.5g}] spread {rel:.3%} "
                  f"(bound {metric['bound']:.0%}, aim < {metric['bound'] / 3:.1%})"
                  + ("  FLAG" if over else ""))
    print(f"steadiness check: {time.perf_counter() - started:.0f}s wall, {flagged} flag(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
