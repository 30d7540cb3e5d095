"""Reference results the benchmark checks the program against.

None of these import the code under test: the NAS references re-derive
each kernel's value from its documented LCG data in plain Python, the
serving model replays the schedule's writes on a dict, and the paper
figures are compared with a stored expected-output file.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

MASK64 = (1 << 64) - 1
LCG_A = 6364136223846793005
LCG_C = 1442695040888963407


def mix_seed(workload_seed: int, base: int) -> int:
    """A kernel fill seed derived from the workload seed (splitmix64)."""
    z = (workload_seed * 0x9E3779B97F4A7C15 + base) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & ((1 << 63) - 1)


def lcg_fill(n: int, seed: int, modulo: int) -> List[int]:
    """The values a kernel's ``for i < n: dest[i] = lcg(i) % modulo``
    fill loop writes: a 64-bit LCG, low 31 bits, reduced."""
    out = []
    state = seed
    for _ in range(n):
        state = (state * LCG_A + LCG_C) & MASK64
        out.append((state & 0x7FFFFFFF) % modulo)
    return out


def _signed(x: int) -> int:
    x &= MASK64
    return x - (1 << 64) if x >= 1 << 63 else x


def cg_value(seeds: Dict[int, int], n_rows: int, nnz_per_row: int) -> int:
    """sum(y) of y = A x for the CSR matrix (gather ``x[col[j]]``)."""
    nnz = n_rows * nnz_per_row
    cols = lcg_fill(nnz, seeds[1], n_rows)
    vals = lcg_fill(nnz, seeds[2], 100)
    x = lcg_fill(n_rows, seeds[3], 100)
    return _signed(sum(v * x[c] for v, c in zip(vals, cols)))


def is_value(seeds: Dict[int, int], n_keys: int, n_buckets: int) -> int:
    """sum(bucket * count) of the key histogram (scatter)."""
    hist = [0] * n_buckets
    for k in lcg_fill(n_keys, seeds[7], n_buckets):
        hist[k] += 1
    return _signed(sum(i * c for i, c in enumerate(hist)))


def mg_value(seeds: Dict[int, int], n: int) -> int:
    """sum over the interior of the 3-point stencil a[i-1]+2a[i]+a[i+1]."""
    a = lcg_fill(n, seeds[11], 50)
    return _signed(sum(a[i - 1] + 2 * a[i] + a[i + 1] for i in range(1, n - 1)))


def sp_value(seeds: Dict[int, int], n: int, c: int = 3) -> int:
    """a[n-1] after the forward recurrence a[i] -= c * a[i-1] (i64 wrap)."""
    a = lcg_fill(n, seeds[13], 20)
    for i in range(1, n):
        a[i] = _signed(a[i] - c * a[i - 1])
    return a[n - 1]


def ft_value(seeds: Dict[int, int], rows: int, cols: int) -> int:
    """Sum of the array (visited column-major; the order does not matter)."""
    return _signed(sum(lcg_fill(rows * cols, seeds[17], 30)))


# -- serving --------------------------------------------------------------------

_MASK31 = 0x7FFFFFFF


def _splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def initial_value(key: int) -> int:
    """The value a key holds before any write."""
    return _splitmix64((key << 8) ^ 0xD1CE) & _MASK31


def written_value(key: int, previous: int) -> int:
    """The value a key holds after one more write."""
    return (previous * 1009 + key + 1) & _MASK31


class ServingModel:
    """A dict that replays the schedule in order: the oracle for every
    response and for the final durable values."""

    def __init__(self) -> None:
        self.values: Dict[int, int] = {}

    def apply(self, key: int, write: bool) -> int:
        """The value a correct server returns for this request."""
        value = self.values.get(key)
        if value is None:
            value = initial_value(key)
        if write:
            value = written_value(key, value)
            self.values[key] = value
        return value

    def final(self, key: int) -> int:
        value = self.values.get(key)
        return initial_value(key) if value is None else value


def check_responses(keys: Sequence[int], writes: Sequence[bool], responses) -> Dict[str, int]:
    """Compare every response with the model; returns the counts.

    ``responses`` are ``(value, degraded)`` pairs in schedule order.  A
    request fails when it was degraded or its value differs from the
    model; ``stale_reads`` are reads that were not flagged degraded yet
    returned a value other than the model's.
    """
    if len(responses) != len(keys):
        raise ValueError(f"{len(responses)} responses for {len(keys)} requests")
    model = ServingModel()
    degraded = mismatched = failed = stale_reads = 0
    for key, write, (value, was_degraded) in zip(keys, writes, responses):
        wrong = value != model.apply(key, write)
        degraded += was_degraded
        mismatched += wrong
        failed += wrong or was_degraded
        stale_reads += wrong and not was_degraded and not write
    return {
        "degraded": degraded,
        "mismatched": mismatched,
        "failed": failed,
        "stale_reads": stale_reads,
        "model": model,
    }


# -- paper figures ----------------------------------------------------------------


def _same(a, b, rel: float) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return math.isclose(a, b, rel_tol=rel, abs_tol=rel)
    return a == b


def experiment_differences(expected: dict, result, rel: float = 1e-9) -> List[str]:
    """How ``result`` (an ExperimentResult) differs from its expected
    entry: ``{"x_values": [...], "series": {name: [...]}}``.  Series the
    entry lists under ``"host_timed"`` are checked for shape only."""
    problems = []
    x_values = [x if isinstance(x, (int, float)) else str(x) for x in result.x_values]
    if x_values != expected["x_values"]:
        problems.append("x values differ")
    series = {s.name: s.values for s in result.series}
    if sorted(series) != sorted(expected["series"]):
        problems.append(f"series names {sorted(series)} != {sorted(expected['series'])}")
        return problems
    host_timed = set(expected.get("host_timed", ()))
    for name, want in expected["series"].items():
        got = series[name]
        if len(got) != len(want):
            problems.append(f"{name}: {len(got)} points, expected {len(want)}")
        elif name not in host_timed and not all(_same(g, w, rel) for g, w in zip(got, want)):
            problems.append(f"{name}: values differ")
    return problems
