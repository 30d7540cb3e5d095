"""The calibrated cost table (Tables 1/2 anchors)."""

import pytest

from repro.bench.ablations import ablation_chunk_setup
from repro.errors import RuntimeConfigError
from repro.machine.costs import AccessKind, CostTable, DEFAULT_COSTS, GuardKind


def test_table1_fast_path_anchors():
    c = DEFAULT_COSTS
    assert c.fast_guard(AccessKind.READ, cached=True) == 21
    assert c.fast_guard(AccessKind.WRITE, cached=True) == 21
    assert c.fast_guard(AccessKind.READ, cached=False) == 297
    assert c.fast_guard(AccessKind.WRITE, cached=False) == 309


def test_table1_slow_path_anchors():
    c = DEFAULT_COSTS
    assert c.slow_guard_local(AccessKind.READ, cached=True) == 144
    assert c.slow_guard_local(AccessKind.WRITE, cached=True) == 159
    assert c.slow_guard_local(AccessKind.READ, cached=False) == 453
    assert c.slow_guard_local(AccessKind.WRITE, cached=False) == 432


def test_table2_fastswap_anchors():
    c = DEFAULT_COSTS
    assert c.fastswap_fault(AccessKind.READ, remote=False) == 1_300
    assert c.fastswap_fault(AccessKind.WRITE, remote=False) == 1_300
    assert c.fastswap_fault(AccessKind.READ, remote=True) == 34_000
    assert c.fastswap_fault(AccessKind.WRITE, remote=True) == 35_000


def test_local_access_is_36_cycles():
    assert DEFAULT_COSTS.local_access == 36


def test_chunking_crossover_near_paper_730():
    # §3.4 / Fig. 6: break-even at ~730 elements per object.
    d_star = DEFAULT_COSTS.chunking_crossover_density()
    assert 650 < d_star < 800


def test_chunking_crossover_rises_with_setup_cost():
    result = ablation_chunk_setup()
    crossovers = result.get("d*").values
    assert crossovers == sorted(crossovers)
    default_idx = result.x_values.index(12700)
    assert 650 < crossovers[default_idx] < 800


def test_boundary_check_cheaper_than_fast_guard():
    c = DEFAULT_COSTS
    assert c.boundary_check < c.fast_guard_read_cached


def test_locality_guard_slightly_more_expensive_than_slow():
    # §3.4: "slightly more expensive locality invariant guards".
    c = DEFAULT_COSTS
    assert c.slow_guard_read_cached < c.locality_guard < 10 * c.slow_guard_read_cached


def test_with_overrides_returns_new_table():
    c = DEFAULT_COSTS.with_overrides(local_access=10.0)
    assert c.local_access == 10.0
    assert DEFAULT_COSTS.local_access == 36.0


def test_negative_cost_rejected():
    with pytest.raises(RuntimeConfigError):
        CostTable(local_access=-1.0)


def test_degenerate_crossover_rejected():
    c = DEFAULT_COSTS.with_overrides(boundary_check=50.0)
    with pytest.raises(RuntimeConfigError):
        c.chunking_crossover_density()


def test_guard_kind_enum_members():
    names = {k.value for k in GuardKind}
    assert {"none", "custody_miss", "fast", "slow", "boundary", "locality"} == names
