"""Run context and statistics shared by the three workloads."""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["RunContext", "percentile", "peak_rss_mb", "process_age", "metric"]


def process_age() -> float:
    """Seconds since this process started (interpreter start included).

    From the start time in ``/proc/self/stat`` (clock ticks since boot,
    so 10 ms resolution); 0.0 where that is unavailable.
    """
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 < q < 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or its largest child), MiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


@dataclass
class RunContext:
    """What ``run.py`` hands a workload: its inputs' seed and its limits."""

    seed: int
    seconds: float
    trace: bool
    root: Path  # checkout root (holds src/ and perfbench/)
    rundir: Path  # this run's private scratch, removed at exit
    boot_s: float  # interpreter start + imports, before any workload set-up
    spans_path: Path | None = None  # where a traced run writes its spans
    notes: list = field(default_factory=list)  # human-readable report lines

    def note(self, line: str) -> None:
        self.notes.append(line)
