"""Property-based tests for Metrics and the streaming histogram.

Hypothesis-generated counter bundles and sample streams check the
algebra the observability layer leans on: ``merge`` is associative and
commutative, ``snapshot`` isolates, ``as_dict``/``from_dict`` round-trip
losslessly, histogram percentiles are monotone, and merging histograms
equals recording the concatenated stream.  The Metrics strategy is
built from the dataclass fields, so every counter is exercised.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields

from hypothesis import given, settings, strategies as st

from repro.machine.costs import GuardKind
from repro.sim.metrics import Metrics
from repro.trace import StreamingHistogram

#: Every integer counter, read from the dataclass so that a new field is
#: covered as soon as it is declared.
_COUNTER_FIELDS = tuple(f.name for f in fields(Metrics) if type(f.default) is int)

metrics_strategy = st.builds(
    lambda cycles, counters, guards: _make_metrics(cycles, counters, guards),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    st.lists(
        st.integers(min_value=0, max_value=1_000_000),
        min_size=len(_COUNTER_FIELDS), max_size=len(_COUNTER_FIELDS),
    ),
    st.dictionaries(
        st.sampled_from(list(GuardKind)),
        st.integers(min_value=1, max_value=1_000_000),
        max_size=len(GuardKind),
    ),
)


def _make_metrics(cycles, counters, guards) -> Metrics:
    m = Metrics(cycles=cycles)
    for field, value in zip(_COUNTER_FIELDS, counters):
        setattr(m, field, value)
    for kind, n in guards.items():
        m.count_guard(kind, n)
    return m


def test_strategy_covers_every_field():
    declared = {f.name for f in fields(Metrics)}
    assert declared == {"cycles", "guards", *_COUNTER_FIELDS}


def _equal(a: Metrics, b: Metrics) -> bool:
    return a.as_dict() == b.as_dict()


samples_strategy = st.lists(
    st.integers(min_value=0, max_value=10**9), min_size=0, max_size=200
)


class TestMetricsAlgebra:
    @given(metrics_strategy, metrics_strategy)
    @settings(max_examples=50, deadline=None)
    def test_merge_commutes(self, a, b):
        ab = a.snapshot()
        ab.merge(b)
        ba = b.snapshot()
        ba.merge(a)
        assert _equal(ab, ba)

    @given(metrics_strategy, metrics_strategy)
    @settings(max_examples=50, deadline=None)
    def test_merge_adds_every_counter(self, a, b):
        ab = Metrics.aggregate([a, b])
        for f in fields(Metrics):
            if f.name == "guards":
                for kind in GuardKind:
                    assert ab.guard_count(kind) == a.guard_count(kind) + b.guard_count(kind)
            else:
                assert getattr(ab, f.name) == getattr(a, f.name) + getattr(b, f.name)

    @given(metrics_strategy, metrics_strategy, metrics_strategy)
    @settings(max_examples=50, deadline=None)
    def test_merge_associates(self, a, b, c):
        left = a.snapshot()
        left.merge(b)
        left.merge(c)
        bc = b.snapshot()
        bc.merge(c)
        right = a.snapshot()
        right.merge(bc)
        # Integer counters associate exactly; the float cycle total only
        # up to rounding (IEEE addition is not associative).
        ld, rd = left.as_dict(), right.as_dict()
        assert math.isclose(ld.pop("cycles"), rd.pop("cycles"), rel_tol=1e-12)
        assert ld == rd

    @given(metrics_strategy)
    @settings(max_examples=50, deadline=None)
    def test_snapshot_isolates(self, m):
        snap = m.snapshot()
        before = snap.as_dict()
        m.cycles += 1000.0
        m.accesses += 5
        m.count_guard(GuardKind.SLOW, 3)
        assert snap.as_dict() == before

    @given(metrics_strategy)
    @settings(max_examples=50, deadline=None)
    def test_reset_zeroes_everything(self, m):
        m.reset()
        assert _equal(m, Metrics())
        assert m.total_guards == 0

    @given(metrics_strategy)
    @settings(max_examples=50, deadline=None)
    def test_as_dict_roundtrips_through_json(self, m):
        wire = json.dumps(m.as_dict())
        back = Metrics.from_dict(json.loads(wire))
        assert _equal(m, back)
        assert back.guards == m.guards


class TestSerializedOrder:
    """``as_dict`` keys follow declaration order (the Chrome export and
    the baselines write them unsorted; dict equality ignores order)."""

    def test_fresh_bundle(self):
        assert list(Metrics().as_dict()) == [
            "cycles", "accesses", "guards", "minor_faults", "major_faults",
            "remote_fetches", "bytes_fetched", "bytes_evacuated", "evictions",
            "prefetches_issued", "prefetches_useful",
        ]

    def test_fully_populated_bundle(self):
        m = Metrics(**{f.name: 1 for f in fields(Metrics) if f.name != "guards"})
        for kind in GuardKind:
            m.count_guard(kind)
        assert list(m.as_dict()) == [f.name for f in fields(Metrics)]
        assert list(m.as_dict()["guards"]) == sorted(k.value for k in GuardKind)


class TestHistogramProperties:
    @given(samples_strategy)
    @settings(max_examples=50, deadline=None)
    def test_percentiles_monotone(self, samples):
        h = StreamingHistogram()
        for s in samples:
            h.record(s)
        if h.count == 0:
            return
        values = [h.percentile(p) for p in (1, 10, 25, 50, 75, 90, 99, 100)]
        assert values == sorted(values)

    @given(samples_strategy)
    @settings(max_examples=50, deadline=None)
    def test_percentile_brackets_extremes(self, samples):
        h = StreamingHistogram()
        for s in samples:
            h.record(s)
        if h.count == 0:
            return
        # Bucket representatives sit within one bucket of the true
        # extremes; min/max themselves are tracked exactly.
        assert h.min == min(samples)
        assert h.max == max(samples)

    @given(samples_strategy, samples_strategy)
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_concatenation(self, xs, ys):
        separate = StreamingHistogram()
        for s in xs:
            separate.record(s)
        other = StreamingHistogram()
        for s in ys:
            other.record(s)
        separate.merge(other)

        together = StreamingHistogram()
        for s in xs + ys:
            together.record(s)
        assert separate.to_dict() == together.to_dict()

    @given(samples_strategy)
    @settings(max_examples=50, deadline=None)
    def test_json_roundtrip_lossless(self, samples):
        h = StreamingHistogram()
        for s in samples:
            h.record(s)
        wire = json.dumps(h.to_dict())
        back = StreamingHistogram.from_dict(json.loads(wire))
        assert back.to_dict() == h.to_dict()
        if h.count:
            assert back.percentile(50) == h.percentile(50)
            assert back.mean == h.mean
