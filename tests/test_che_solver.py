"""Che solver: bit-identity with the plain bisection, cost, typed errors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.sim import che
from repro.sim.che import characteristic_time, lru_hit_rate, per_granule_hit_rates


def reference_characteristic_time(masses: np.ndarray, capacity: int) -> float:
    """The 64-step bisection that defines the model's characteristic time."""
    m = np.asarray(masses, dtype=np.float64)
    if capacity <= 0:
        return 0.0
    if capacity >= len(m):
        return float("inf")
    m = m / m.sum()

    def filled(t: float) -> float:
        return float(np.sum(-np.expm1(-m * t)))

    lo, hi = 0.0, 1.0
    while filled(hi) < capacity:
        hi *= 2.0
        if hi > 1e18:
            return hi
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if filled(mid) < capacity:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _masses(kind: str, n: int, skew: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        m = np.ones(n)
    elif kind == "zipf":
        m = np.arange(1, n + 1, dtype=np.float64) ** -skew
        rng.shuffle(m)
    elif kind == "ties":
        m = rng.integers(1, 4, n).astype(np.float64)
    elif kind == "one_hot":
        m = np.zeros(n)
        m[rng.integers(n)] = 1.0
    else:  # sparse: about half the granules never touched
        m = rng.random(n)
        m[rng.random(n) < 0.5] = 0.0
        m[rng.integers(n)] = 1.0
    return m / m.sum()


def _fig16_heat(skew: float):
    """Fig. 16's 64 B granule heat at ``skew`` and its cache capacity."""
    from repro.bench.app_figs import GB, ScaleModel
    from repro.workloads.memcached import MemcachedWorkload

    scale = ScaleModel(factor=512)
    count = scale.count(100_000_000, floor=100_000)
    wl = MemcachedWorkload(
        working_set=scale.bytes(12 * GB), n_keys=count, n_ops=count, skew=skew
    )
    return wl._granule_heat(64), scale.bytes(1 * GB) // 64


class TestBitIdentity:
    @given(
        st.sampled_from(["uniform", "zipf", "ties", "one_hot", "sparse"]),
        st.integers(min_value=2, max_value=5000),
        st.floats(min_value=0.5, max_value=2.0),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, kind, n, skew, seed, where):
        m = _masses(kind, n, skew, seed)
        capacity = 1 + int(where * (n - 1))
        assert characteristic_time(m, capacity) == reference_characteristic_time(m, capacity)

    @given(
        st.integers(min_value=4, max_value=2000),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_capacity_at_or_above_nonzero_count(self, n, seed, extra):
        """The degenerate doubling path: the cache can hold every touched granule."""
        m = _masses("sparse", n, 1.0, seed)
        capacity = min(n - 1, int(np.count_nonzero(m)) + extra)
        assert characteristic_time(m, capacity) == reference_characteristic_time(m, capacity)

    @pytest.mark.parametrize("skew", [1.0, 1.3])
    def test_fig16_heat(self, skew):
        heat, capacity = _fig16_heat(skew)
        assert len(heat) == 395_869
        m = heat / heat.sum()
        t = reference_characteristic_time(m, capacity)
        assert characteristic_time(m, capacity) == t
        assert lru_hit_rate(heat, capacity) == float(np.sum(m * -np.expm1(-m * t)))

    def test_fig09_hashmap_heat(self):
        from repro.bench.hashmap_figs import HASHMAP_SCALE, _workload

        heat = _workload(HASHMAP_SCALE)._granule_heat(256)
        m = heat / heat.sum()
        capacity = len(heat) // 4
        assert characteristic_time(m, capacity) == reference_characteristic_time(m, capacity)


class TestEvaluationCount:
    def test_fig16_solve_needs_few_evaluations(self, monkeypatch):
        heat, capacity = _fig16_heat(1.0)
        calls = []
        filled = che._filled

        def counting(m, t, buf):
            calls.append(t)
            return filled(m, t, buf)

        monkeypatch.setattr(che, "_filled", counting)
        lru_hit_rate(heat, capacity)
        # The plain bisection makes ~80 full-array evaluations here.
        assert 0 < len(calls) <= 25


class TestInvalidMasses:
    NEGATIVE = [1.0, -0.5, 1.0]

    def test_negative_mass_hit_rate(self):
        with pytest.raises(WorkloadError):
            lru_hit_rate(self.NEGATIVE, 1)

    def test_negative_mass_per_granule(self):
        with pytest.raises(WorkloadError):
            per_granule_hit_rates(self.NEGATIVE, 1)

    def test_negative_mass_characteristic_time(self):
        with pytest.raises(WorkloadError):
            characteristic_time(self.NEGATIVE, 1)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("fn", [lru_hit_rate, per_granule_hit_rates, characteristic_time])
    def test_non_finite_mass(self, fn, bad):
        with pytest.raises(WorkloadError):
            fn([1.0, bad, 1.0], 1)

    @pytest.mark.parametrize("fn", [lru_hit_rate, per_granule_hit_rates, characteristic_time])
    def test_two_dimensional_masses(self, fn):
        with pytest.raises(WorkloadError):
            fn(np.ones((3, 3)), 5)

    def test_valid_edge_cases_keep_their_results(self):
        assert lru_hit_rate(np.zeros(5), 2) == 0.0
        assert lru_hit_rate(np.ones(5), 0) == 0.0
        assert lru_hit_rate(np.ones(5), 5) == 1.0
        assert lru_hit_rate(np.array([]), 3) == 0.0
        assert characteristic_time(np.ones(4), 0) == 0.0
        assert characteristic_time(np.zeros(4), 4) == float("inf")
        assert per_granule_hit_rates(np.zeros(3), 1).tolist() == [0.0, 0.0, 0.0]
        assert per_granule_hit_rates(np.ones(3), 3).tolist() == [1.0, 1.0, 1.0]
