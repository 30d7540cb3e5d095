"""Che's approximation for LRU hit rates.

Given per-granule access probabilities (the "heat" vectors the hashmap
and memcached workloads build), an LRU cache of capacity ``C`` admits a
*characteristic time* ``T`` such that

    sum_i (1 - exp(-m_i * T)) = C

and granule ``i``'s hit rate is ``1 - exp(-m_i * T)`` (Che, Tung &
Wang, 2002).  This models what a real LRU does under a heavy-tailed
request stream far better than an ideal "hottest-K resident" cache: the
zipf tail continuously churns through the cache, evicting warm entries,
so aggregate hit rates are substantially lower — which is exactly the
refetch traffic behind the paper's I/O-amplification numbers (Fig. 13:
TrackFM still amplifies the working set 2.3x).

The solver
----------
``T`` is *defined* as the float a fixed bisection returns: double ``hi``
from 1.0 until the computed ``filled(hi) >= C``, halve ``[lo, hi]`` 64
times, return the midpoint.  Every figure built on the model pins that
float, so :func:`characteristic_time` replays exactly those steps; it
only avoids evaluating ``filled`` where the answer is already known:

1. Newton's method from below locates the root.  ``filled`` is
   increasing and concave, and ``filled(C) <= C``, so Newton started at
   ``t = C`` never overshoots and converges in a handful of evaluations.
2. A window ``[a, b]`` around that estimate is *certified*: the computed
   ``filled(a)`` lies below ``C`` and the computed ``filled(b)`` above
   it, each by more than a worst-case rounding bound (see
   :func:`_certified_window`).  Then every bisection test at ``x <= a``
   is true and every test at ``x >= b`` is false without evaluating.
3. Once the bisection bracket shrinks to two adjacent floats, the
   midpoint rounds to one end, whose test result is already known.

Evaluations happen only for midpoints strictly inside ``(a, b)``; the
result is bit-identical to the plain bisection.  ``docs/performance.md``
("Che solver") has the derivation and the evaluation counts.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.errors import WorkloadError

_EPS = float(np.finfo(np.float64).eps)
#: Cap on Newton iterations.  Near the root a handful suffice; a cache
#: that holds almost every touched granule approaches it slowly.
_NEWTON_STEPS = 40
#: A Newton step this small relative to ``t`` means the next iterate is
#: accurate to a few ulps, well inside the certified window.
_NEWTON_TOL = 2.0**-26
#: How often an uncertified window is widened (x100) before the solver
#: falls back to evaluating every bisection test.
_WIDENINGS = 3


def _normalized(masses: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Validate ``masses``; return them as floats and scaled to sum to 1.

    The scaled array is ``None`` when the masses are all zero (or empty).
    """
    m = np.asarray(masses, dtype=np.float64)
    if m.ndim != 1:
        raise WorkloadError(f"masses must be a 1-D array, got shape {m.shape}")
    total = m.sum()
    if not math.isfinite(total) or (len(m) and m.min() < 0):
        raise WorkloadError("masses must be finite and non-negative")
    return m, (m / total if total > 0 else None)


def _filled(m: np.ndarray, t: float, buf: np.ndarray) -> float:
    """Computed ``sum_i (1 - exp(-m_i * t))``, evaluated in ``buf``.

    Bit-identical to ``np.sum(-np.expm1(-m * t))``: IEEE negation is
    exact and commutes with rounded multiplication and with every
    partial sum.  Leaves ``expm1(-m_i * t)`` in ``buf``.
    """
    np.multiply(m, -t, out=buf)
    np.expm1(buf, out=buf)
    return -float(buf.sum())


def _certified_window(m: np.ndarray, capacity: int, buf: np.ndarray) -> Tuple[float, float]:
    """An interval ``[a, b]`` on which the bisection's tests are known.

    Guarantees that the computed ``_filled(m, x) < capacity`` for every
    ``x <= a`` and ``>= capacity`` for every ``x >= b``; returns
    ``(-inf, inf)`` when no such window certifies.

    Rounding bound.  Let ``F(x)`` be the exact ``sum_i g(m_i x)`` with
    ``g(y) = 1 - exp(-y)`` over the stored (already rounded) masses, and
    ``u = eps / 2``.  Each computed term is ``g(m_i x)(1 + theta_i)``:
    rounding ``m_i * x`` perturbs the argument by a relative ``u``, which
    moves ``g`` by at most a relative ``u`` because ``g`` is concave with
    ``g(0) = 0``; ``expm1`` adds at most 4 ulps (``<= 4 eps`` relative;
    the bound of numpy's SIMD builds, glibc's is 1).  So
    ``|theta_i| <= 9u``.
    numpy sums a contiguous float64 array pairwise: blocks of at most
    128 terms go through 8 accumulators of at most 16 terms (15 adds),
    3 combining adds and at most 7 trailing adds, and the halving above
    that adds at most ``ceil(log2 n) - 6`` levels, plus one add for the
    reduction's initial value.  Each term therefore meets at most
    ``D = ceil(log2 n) + 20`` roundings.  All terms are non-negative, so
    the computed sum is ``F(x)(1 + rho)`` with
    ``|rho| <= r = (D + 14) u`` (``9u`` for the terms, ``Du`` for the
    sums, and ``5u`` covering every product of two error terms).  Products
    ``m_i * x`` that underflow add an absolute ``n * 2**-1074`` at most,
    which the slack below covers many times over since ``C >= 1``.

    Certification.  ``F`` is increasing, so for ``x <= a``::

        computed(x) <= F(x)(1 + r) <= F(a)(1 + r)
                    <= computed(a)(1 + r) / (1 - r) < C

    once ``computed(a) < C(1 - 4r)``; symmetrically, ``computed(x) >= C``
    for ``x >= b`` once ``computed(b) > C(1 + 4r)``.  The margin used is
    ``E = 4(r + eps)C``: the extra ``4 eps C`` covers the rounding of
    ``E`` and of ``C - E`` and ``C + E`` themselves.  (Rounded products
    and sums are monotone, so wherever ``expm1`` is monotone the computed
    sum is too; the margin keeps the certificate from depending on that.)

    The window is centred on the Newton estimate with a half-width of
    ``2E / slope``; each end is certified on its own and, if it fails,
    widened x100 up to ``_WIDENINGS`` times.  An end that never
    certifies stays infinite, which costs evaluations, never bits.
    """
    n = len(m)
    r = (math.ceil(math.log2(n)) + 34) * _EPS / 2
    margin = 4.0 * (r + _EPS) * capacity

    t = float(capacity)
    slope = 0.0
    for _ in range(_NEWTON_STEPS):
        fill = _filled(m, t, buf)
        # filled'(t) = sum m e^{-mt} = sum m + sum m expm1(-mt), and sum m = 1.
        slope = 1.0 + float(np.dot(m, buf))
        if fill >= capacity or not slope > 0.0:
            break
        step = (capacity - fill) / slope
        t += step
        if step <= _NEWTON_TOL * t or t > 1e18:
            break
    if not math.isfinite(t):
        return -math.inf, math.inf

    half = 4.0 * _EPS * t + (2.0 * margin / slope if slope > 0.0 else 0.0)
    a, b = -math.inf, math.inf
    for _ in range(1 + _WIDENINGS):
        if a == -math.inf:
            x = max(t - half, 0.0)
            if _filled(m, x, buf) < capacity - margin:
                a = x
        if b == math.inf:
            x = t + half
            if _filled(m, x, buf) > capacity + margin:
                b = x
        if a != -math.inf and b != math.inf:
            break
        half *= 100.0
    return a, b


def characteristic_time(masses: np.ndarray, capacity: int) -> float:
    """Solve Che's fixed point for the characteristic time T.

    Returns exactly the float of a 64-step bisection on the computed
    ``filled(T) < capacity`` test (see the module docstring).
    """
    m, norm = _normalized(masses)
    if len(m) == 0:
        raise WorkloadError("masses must be a non-empty 1-D array")
    if capacity <= 0:
        return 0.0
    if capacity >= len(m):
        return float("inf")
    if norm is None:
        raise WorkloadError("masses must have positive total")
    # Callers pass normalised masses; scaling them again keeps the float
    # the model has always returned (a total of 1 +- ulp changes bits).
    buf = np.empty_like(norm)
    a, b = _certified_window(norm, capacity, buf)

    def below(x: float) -> bool:
        if x <= a:
            return True
        if x >= b:
            return False
        return _filled(norm, x, buf) < capacity

    lo, hi = 0.0, 1.0
    while below(hi):
        hi *= 2.0
        if hi > 1e18:  # degenerate: more capacity than touched granules
            return hi
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        # At adjacent floats mid rounds to lo (known below) or hi (known not).
        if mid == lo or (mid != hi and below(mid)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lru_hit_rate(masses: np.ndarray, capacity: int) -> float:
    """Aggregate LRU hit rate of a request stream over its granules.

    ``masses[i]`` is the probability a request touches granule ``i``
    (they are normalized internally); ``capacity`` is how many granules
    fit in the cache.
    """
    m, norm = _normalized(masses)
    if capacity <= 0 or len(m) == 0:
        return 0.0
    if capacity >= len(m):
        return 1.0
    if norm is None:
        return 0.0
    t = characteristic_time(norm, capacity)
    if t == float("inf"):
        return 1.0
    # sum(m * -expm1(-m t)), in one buffer; negation is exact.
    buf = np.multiply(norm, -t)
    np.expm1(buf, out=buf)
    np.multiply(norm, buf, out=buf)
    return -float(buf.sum())


def per_granule_hit_rates(masses: np.ndarray, capacity: int) -> np.ndarray:
    """Per-granule hit probabilities under the same approximation."""
    m, norm = _normalized(masses)
    if capacity <= 0 or len(m) == 0:
        return np.zeros_like(m)
    if capacity >= len(m):
        return np.ones_like(m)
    if norm is None:
        return np.zeros_like(m)
    t = characteristic_time(norm, capacity)
    if t == float("inf"):
        return np.ones_like(m)
    return -np.expm1(-norm * t)
