"""Residency set (LRU/CLOCK + pinning) and the sparse address space."""

import pytest

from repro.errors import EvacuationError, InterpError, RuntimeConfigError, SegmentationFault
from repro.ir.types import F64, I32, I64
from repro.sim.memory import AddressSpace
from repro.sim.residency import ResidencySet
from repro.workloads.zipf import ZipfGenerator


class TestResidencyLRU:
    def test_miss_then_hit(self):
        rs = ResidencySet(capacity=2)
        assert rs.access(1).hit is False
        assert rs.access(1).hit is True
        assert len(rs) == 1

    def test_lru_eviction_order(self):
        rs = ResidencySet(capacity=2)
        rs.access(1)
        rs.access(2)
        rs.access(1)  # 2 is now LRU
        out = rs.access(3)
        assert out.evicted == [(2, False)]
        assert 1 in rs and 3 in rs

    def test_dirty_tracking(self):
        rs = ResidencySet(capacity=1)
        rs.access(1, write=True)
        assert rs.is_dirty(1)
        out = rs.access(2)
        assert out.evicted == [(1, True)]
        assert not rs.is_dirty(1)

    def test_write_on_hit_dirties(self):
        rs = ResidencySet(capacity=2)
        rs.access(1)
        assert not rs.is_dirty(1)
        rs.access(1, write=True)
        assert rs.is_dirty(1)

    def test_pinned_granules_not_evicted(self):
        rs = ResidencySet(capacity=2)
        rs.access(1)
        rs.pin(1)
        rs.access(2)
        out = rs.access(3)
        assert (1, False) not in out.evicted
        assert 1 in rs

    def test_all_pinned_raises(self):
        rs = ResidencySet(capacity=1)
        rs.access(1)
        rs.pin(1)
        with pytest.raises(EvacuationError):
            rs.access(2)

    def test_unpin_allows_eviction_again(self):
        rs = ResidencySet(capacity=1)
        rs.access(1)
        rs.pin(1)
        rs.unpin(1)
        out = rs.access(2)
        assert out.evicted == [(1, False)]

    def test_nested_pins(self):
        rs = ResidencySet(capacity=1)
        rs.access(1)
        rs.pin(1)
        rs.pin(1)
        rs.unpin(1)
        assert rs.is_pinned(1)
        rs.unpin(1)
        assert not rs.is_pinned(1)

    def test_unpin_unpinned_raises(self):
        rs = ResidencySet(capacity=1)
        with pytest.raises(EvacuationError):
            rs.unpin(7)

    def test_insert_prefetch_enters_cold(self):
        rs = ResidencySet(capacity=2)
        rs.access(1)
        rs.insert(2)  # prefetched: LRU position
        out = rs.access(3)
        assert out.evicted == [(2, False)]

    def test_insert_existing_is_noop(self):
        rs = ResidencySet(capacity=2)
        rs.access(1)
        assert rs.insert(1) == []

    def test_discard(self):
        rs = ResidencySet(capacity=2)
        rs.access(1, write=True)
        rs.discard(1)
        assert 1 not in rs
        assert not rs.is_dirty(1)

    def test_flush_reports_dirty(self):
        rs = ResidencySet(capacity=4)
        rs.access(1, write=True)
        rs.access(2)
        flushed = dict(rs.flush())
        assert flushed == {1: True, 2: False}
        assert len(rs) == 0

    def test_flush_skips_pinned(self):
        rs = ResidencySet(capacity=4)
        rs.access(1)
        rs.pin(1)
        rs.access(2)
        flushed = rs.flush()
        assert (2, False) in flushed
        assert 1 in rs

    def test_capacity_validation(self):
        with pytest.raises(RuntimeConfigError):
            ResidencySet(capacity=0)


class TestResidencyClock:
    def test_second_chance(self):
        rs = ResidencySet(capacity=2, use_clock=True)
        rs.access(1)
        rs.access(2)
        rs.access(1)  # sets 1's hot bit
        out = rs.access(3)
        # CLOCK clears 1's hot bit and evicts 2 (cold).
        assert out.evicted == [(2, False)]
        assert 1 in rs

    def test_clock_never_misses_more_than_lru_on_zipf(self):
        # Zipf 1.05 over 4096 objects at four local capacities.
        n_objects, n_accesses = 4096, 60_000
        trace = ZipfGenerator(n_objects, 1.05, seed=42).sample(n_accesses)

        def miss_rate(capacity, use_clock):
            rs = ResidencySet(capacity, use_clock=use_clock)
            return sum(0 if rs.access(int(o)).hit else 1 for o in trace) / n_accesses

        for frac in (0.05, 0.1, 0.25, 0.5):
            capacity = max(1, int(n_objects * frac))
            assert miss_rate(capacity, True) <= miss_rate(capacity, False) + 1e-9

    def test_clock_with_pins(self):
        rs = ResidencySet(capacity=2, use_clock=True)
        rs.access(1)
        rs.pin(1)
        rs.access(2)
        out = rs.access(3)
        assert out.evicted == [(2, False)]


class TestAddressSpace:
    def test_map_read_write(self):
        mem = AddressSpace()
        mem.map_region(0x1000, 64)
        mem.write_bytes(0x1010, b"hello")
        assert mem.read_bytes(0x1010, 5) == b"hello"

    def test_unmapped_access_faults(self):
        mem = AddressSpace()
        with pytest.raises(SegmentationFault):
            mem.read_bytes(0x2000, 8)

    def test_overlap_rejected(self):
        mem = AddressSpace()
        mem.map_region(0x1000, 64)
        with pytest.raises(InterpError):
            mem.map_region(0x1020, 64)
        with pytest.raises(InterpError):
            mem.map_region(0xFE0, 64)

    def test_access_straddling_region_end_faults(self):
        mem = AddressSpace()
        mem.map_region(0x1000, 8)
        with pytest.raises(SegmentationFault):
            mem.read_bytes(0x1004, 8)

    def test_unmap(self):
        mem = AddressSpace()
        mem.map_region(0x1000, 64)
        mem.unmap(0x1000)
        assert not mem.is_mapped(0x1000)
        with pytest.raises(InterpError):
            mem.unmap(0x1000)

    def test_typed_roundtrips(self):
        mem = AddressSpace()
        mem.map_region(0, 64)
        mem.write_value(0, I64, -5)
        assert mem.read_value(0, I64) == -5
        mem.write_value(8, F64, 1.5)
        assert mem.read_value(8, F64) == 1.5
        mem.write_value(16, I32, -1)
        assert mem.read_value(16, I32) == -1

    def test_adjacent_regions(self):
        mem = AddressSpace()
        mem.map_region(0, 64)
        mem.map_region(64, 64)  # exactly adjacent: allowed
        mem.write_bytes(64, b"x")
        assert mem.read_bytes(64, 1) == b"x"

    def test_empty_region_rejected(self):
        mem = AddressSpace()
        with pytest.raises(InterpError):
            mem.map_region(0, 0)
