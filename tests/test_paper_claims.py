"""Sentence-level claims from the paper's prose, checked at paper scale.

Beyond the figures, the paper makes quantitative claims inline; the
closed-form accounting lets us check them at the *unscaled* sizes.
"""

import pytest

from repro.aifm.pool import PoolConfig
from repro.bench.ablations import ablation_state_table
from repro.machine.costs import AccessKind, DEFAULT_COSTS, GuardKind
from repro.trackfm.runtime import GuardStrategy, TrackFMRuntime
from repro.units import GB, KB, MB
from repro.workloads.stream import StreamKernel, StreamWorkload


class TestSection41GuardCounts:
    """§4.1: STREAM with a 9 GB working set "produces up to 56 million
    slow-path guards and ~10 billion fast-path guards"."""

    def test_stream_9gb_guard_magnitudes(self):
        working_set = 9 * GB
        runtime = TrackFMRuntime(
            PoolConfig(
                object_size=4 * KB,
                local_memory=working_set // 4,
                heap_size=2 * working_set,
            )
        )
        # STREAM's full four-kernel run over 4-byte elements, naive.
        wl = StreamWorkload(working_set, kernel=StreamKernel.SUM, passes=4)
        wl.run_trackfm(runtime, GuardStrategy.NAIVE)
        for kernel in (StreamKernel.COPY, StreamKernel.SCALE, StreamKernel.TRIAD):
            StreamWorkload(working_set, kernel=kernel, passes=4).run_trackfm(
                runtime, GuardStrategy.NAIVE
            )
        fast = runtime.metrics.guard_count(GuardKind.FAST)
        slow = runtime.metrics.guard_count(GuardKind.SLOW)
        # "~10 billion fast-path guards"
        assert 5e9 < fast < 5e10
        # "up to 56 million slow-path guards"
        assert 5e6 < slow < 1e8

    def test_chunking_eliminates_sum_fast_guards(self):
        """§4.2: for Sum "we reduce the fast-path guard count from ~1.6
        billion to zero"."""
        working_set = 12 * GB
        runtime = TrackFMRuntime(
            PoolConfig(
                object_size=4 * KB,
                local_memory=working_set // 4,
                heap_size=2 * working_set,
            )
        )
        wl = StreamWorkload(working_set, kernel=StreamKernel.SUM, passes=1)
        wl.run_trackfm(runtime, GuardStrategy.NAIVE)
        naive_fast = runtime.metrics.guard_count(GuardKind.FAST)
        assert 1e9 < naive_fast < 1e10  # ~1.6 billion per pass ballpark

        chunked_rt = TrackFMRuntime(
            PoolConfig(
                object_size=4 * KB,
                local_memory=working_set // 4,
                heap_size=2 * working_set,
            )
        )
        StreamWorkload(working_set, kernel=StreamKernel.SUM, passes=1).run_trackfm(
            chunked_rt, GuardStrategy.CHUNKED
        )
        assert chunked_rt.metrics.guard_count(GuardKind.FAST) == 0


class TestSection32StateTable:
    """§3.2: "if we have a 32 GB remote heap ... we would need 2^23
    entries in the table ... thus consuming 64 MB for the full table"."""

    def test_exact_numbers(self):
        from repro.aifm.pool import ObjectPool
        from repro.trackfm.state_table import ObjectStateTable

        pool = ObjectPool(
            PoolConfig(object_size=4 * KB, local_memory=1 * MB, heap_size=32 * GB)
        )
        table = ObjectStateTable(pool)
        assert table.num_entries == 2**23
        assert table.size_bytes == 64 * MB

    def test_one_metadata_reference_beats_two(self):
        # Naive STREAM guards: the table's indexed load vs AIFM's second
        # dependent metadata reference.
        with_table, without = ablation_state_table().get("total cycles").values
        assert without > 1.3 * with_table


class TestSection33InstructionCounts:
    """§3.3's instruction-count anatomy of the guard."""

    def test_fast_path_14_instructions(self):
        assert DEFAULT_COSTS.fast_guard_instrs == 14

    def test_boundary_check_3_instructions(self):
        assert DEFAULT_COSTS.boundary_check_instrs == 3

    def test_slow_path_at_least_144_instructions(self):
        assert DEFAULT_COSTS.slow_guard_instrs >= 144

    def test_custody_check_roughly_four_to_six(self):
        assert 4 <= DEFAULT_COSTS.custody_check_instrs <= 6


class TestTable2DerivedClaims:
    """§4.1: "Handling a page fault in the kernel incurs 2.9x the cost
    of handling a slow-path guard in TrackFM when the data is local"."""

    def test_kernel_vs_guard_ratio(self):
        kernel = DEFAULT_COSTS.fastswap_fault(AccessKind.READ, remote=False)
        guard = DEFAULT_COSTS.slow_guard_local(AccessKind.READ, cached=False)
        assert kernel / guard == pytest.approx(2.9, rel=0.02)

    def test_remote_parity(self):
        """Remote costs are near parity (both ~34-35K): "even with this
        high-performance networking layer, Fastswap still provides
        little benefit over our remote slow-path guard"."""
        from repro.net.backends import make_tcp_backend

        tfm_remote = (
            DEFAULT_COSTS.slow_guard_local(AccessKind.READ, cached=False)
            + make_tcp_backend().fetch_cost(4 * KB)
        )
        fs_remote = DEFAULT_COSTS.fastswap_fault(AccessKind.READ, remote=True)
        assert tfm_remote / fs_remote == pytest.approx(1.0, rel=0.1)


class TestSection42KmeansPointers:
    """§4.2: k-means "chunking optimization detects 103 array pointers,
    and after applying the cost model only 27 were optimized" — we check
    the *behavioural* consequence: the model must reject the short
    nested loops and accept the long scans."""

    def test_cost_model_split(self):
        from repro.compiler.cost_model import ChunkingCostModel, LoopShape

        model = ChunkingCostModel(4 * KB)
        # Inner distance loop: 8 coordinates, entered once per point.
        inner = LoopShape(iterations_per_entry=8, elem_size=4, entries=30_000_000)
        # Outer point sweep: millions of iterations, one entry.
        outer = LoopShape(iterations_per_entry=30_000_000, elem_size=32)
        assert not model.should_chunk(inner)
        assert model.should_chunk(outer)
