"""Host-side measurement helpers: memory, provenance, statistics."""

from __future__ import annotations

import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from typing import Dict, List, Sequence


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def fingerprint() -> Dict[str, object]:
    """What a reader needs to compare host timings across result files."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The nearest-rank percentile (``pct`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError(f"geomean needs positive values, got {list(values)}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` of a sample, for the result file."""
    ordered = sorted(values)
    if len(ordered) < 2:
        return [ordered[0]] * 3 if ordered else []
    q = statistics.quantiles(ordered, n=4)
    return [q[0], median(ordered), q[2]]


#: The probe loop's median time on the reference host (a 2-vCPU Xeon VM at
#: 2.1 GHz, Python 3.11), measured during the benchmark's passes.
REFERENCE_PROBE_S = 0.0012


class SpeedProbe:
    """Samples the host's speed while a pass runs.

    On a shared host the same pass runs up to ~1.5x slower for minutes
    at a time (frequency scaling, neighbours), which no statistic over
    one run's passes removes.  So every ``interval`` wall seconds a
    SIGALRM handler times one run of a fixed loop — half a millisecond
    of dict lookups over a few-MB table and integer arithmetic, no code
    of the program under test.  Each pass's times are then scaled by
    ``REFERENCE_PROBE_S / median loop time during the pass``: a change to
    the program moves the scaled times, a slow host period slows both
    and cancels.  ``spent_wall``/``spent_cpu`` are the handler's own
    time, which the caller subtracts from the pass.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self._table = {(i * 2654435761) & 0xFFFFF: i for i in range(1 << 16)}
        self._keys = [(i * 40503 * 2654435761) & 0xFFFFF for i in range(4096)]
        self.samples: List[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def _loop(self) -> int:
        table = self._table
        acc = 0
        for k in self._keys:
            v = table.get(k)
            acc = (acc + (v if v is not None else k)) & 0xFFFFFFFF
        return acc

    def _tick(self, signum, frame) -> None:
        c0 = time.process_time()
        w0 = time.perf_counter()
        self._loop()
        w1 = time.perf_counter()
        self.samples.append(w1 - w0)
        self.spent_wall += time.perf_counter() - w0
        self.spent_cpu += time.process_time() - c0

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self.spent_wall = self.spent_cpu = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
