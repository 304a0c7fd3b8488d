#!/usr/bin/env python3
"""Benchmark entry point: one workload, one measured run, one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cycle-calib --seed 1 --seconds 30 --trace 0

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of BENCHMARK.json with ``--trace
0``, the per-layer metrics with ``--trace 1``.  The lines before it
are a readable report.  Exit code 0 when every output check passed
(the known Aurora tiling fault in ``paper`` counts its ops as failed
instead), 1 when a check failed, 2 when the program cannot be found.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

WORKLOADS = {"paper": "paper", "cycle-calib": "calib", "serve-mix": "serve_mix"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans", default=None,
        help="with --trace 1, also keep the span file (JSON lines) here",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    # No byte-code is written, here or by the program, so a run leaves
    # no file in the tree and every run imports from the same state.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(HERE))
    from common import RunContext, process_age

    cwd = os.getcwd()
    SCRATCH.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        sys.path.insert(0, str(SRC))
        workload = importlib.import_module(WORKLOADS[args.workload])
        for name in workload.IMPORTS:
            importlib.import_module(name)
        # From process start (interpreter start-up included) where /proc
        # tells it, else from the first line of this script.
        boot_s = process_age() or time.perf_counter() - T_START

        ctx = RunContext(
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            root=ROOT,
            rundir=rundir,
            boot_s=boot_s,
            spans_path=Path(args.spans).resolve() if args.spans else None,
        )
        # Program code that writes relative paths writes into the scratch.
        os.chdir(rundir)
        result = workload.run(ctx)
    finally:
        os.chdir(cwd)
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still holds its scratch here
    for line in ctx.notes:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
