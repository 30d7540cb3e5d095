"""Ablations of TrackFM's design choices, plus the §5 extension studies.

The paper motivates several mechanisms without isolating them; these
experiments do the isolation:

* **object state table** (§3.2): TrackFM's flat metadata table saves
  one dependent memory reference per guard vs AIFM's two-level scheme;
* **prefetch depth** (§4.3): how deep the stride prefetcher's request
  pipeline must be before STREAM stops being latency-bound;
* **chunk-setup sensitivity** (§3.4): how the Eq. 3 crossover moves
  with the per-loop-entry setup cost;
* **heap pruning** (§5 extension): profile-guided pinning of hot
  allocations elides guards outright;
* **hybrid placement** (§5 extension): kernel pages for the dense
  bucket array + TrackFM objects for items, on memcached.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.bench.harness import CPU_HZ, ExperimentResult
from repro.machine.costs import DEFAULT_COSTS
from repro.machine.scale import ScaleModel
from repro.net.backends import make_tcp_backend
from repro.trackfm.runtime import GuardStrategy, TrackFMRuntime
from repro.aifm.pool import PoolConfig
from repro.units import GB, KB, MB
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.stream import StreamWorkload

#: Extra cycles per fast-path guard when metadata needs AIFM's second
#: dependent reference instead of the state table's indexed load.
SECOND_REFERENCE_CYCLES = 36.0


def ablation_state_table() -> ExperimentResult:
    """With vs without the object state table (naive STREAM guards)."""
    working_set = 12 * MB
    result = ExperimentResult(
        "ablation_state_table",
        "Object state table: one metadata reference vs two (naive STREAM)",
        "configuration",
        ["with state table", "without (2-ref metadata)"],
        "cycles (lower is better)",
    )
    cycles: List[float] = []
    for extra in (0.0, SECOND_REFERENCE_CYCLES):
        costs = DEFAULT_COSTS.with_overrides(
            fast_guard_read_cached=DEFAULT_COSTS.fast_guard_read_cached + extra,
            fast_guard_write_cached=DEFAULT_COSTS.fast_guard_write_cached + extra,
        )
        rt = TrackFMRuntime(
            PoolConfig(
                object_size=4 * KB,
                local_memory=working_set // 2,
                heap_size=2 * working_set,
                costs=costs,
            )
        )
        wl = StreamWorkload(working_set)
        cycles.append(wl.run_trackfm(rt, GuardStrategy.NAIVE))
    result.add_series("total cycles", cycles)
    result.note(
        f"the table saves {100 * (cycles[1] / cycles[0] - 1):.0f}% on a "
        "fast-path-dominated run"
    )
    return result


def ablation_prefetch_depth(
    depths: Sequence[int] = (1, 2, 4, 8, 16, 32),
) -> ExperimentResult:
    """Per-object fetch cost vs prefetch pipeline depth (4 KB objects)."""
    link = make_tcp_backend().link
    result = ExperimentResult(
        "ablation_prefetch_depth",
        "Prefetch pipeline depth vs effective per-object fetch cost",
        "depth",
        list(depths),
        "cycles per 4KB object",
    )
    result.add_series(
        "fetch cycles", [link.pipelined_cycles(4 * KB, d) for d in depths]
    )
    wire = link.wire_cycles(4 * KB)
    result.note(f"bandwidth floor (pure wire time): {wire:.0f} cycles")
    return result


def ablation_chunk_setup(
    setups: Sequence[float] = (3_000, 6_000, 12_700, 25_000, 50_000),
) -> ExperimentResult:
    """Eq. 3 crossover density as the chunk-setup cost varies."""
    result = ExperimentResult(
        "ablation_chunk_setup",
        "Cost-model crossover vs per-loop-entry chunk setup cost",
        "setup cycles",
        list(setups),
        "break-even elements/object",
    )
    result.add_series(
        "d*",
        [
            DEFAULT_COSTS.with_overrides(chunk_setup=s).chunking_crossover_density()
            for s in setups
        ],
    )
    result.note("the default (12.7K) reproduces the paper's ~730")
    return result


def ablation_heap_pruning() -> ExperimentResult:
    """Profile-guided pinning (§5 extension): guards elided, cycles saved.

    The probe program interleaves lookups into a small hot table with a
    scan of a large cold array — the MaPHeA-style case where the hot
    table should simply live in local memory.
    """
    from repro.analysis.profiler import profile_module
    from repro.compiler.pipeline import ChunkingPolicy, CompilerConfig, TrackFMCompiler
    from repro.ir import IRBuilder, I64, PTR, Module
    from repro.ir.values import Constant
    from repro.sim.irrun import TrackFMProgram

    HOT = 64          # hot table: 64 entries, hit every iteration
    COLD = 8192       # cold array: one sequential touch each

    def build() -> Module:
        m = Module("pruning-probe")
        f = m.add_function("main", I64)
        entry, header, body, done = (
            f.add_block(n) for n in ("entry", "header", "body", "done")
        )
        b = IRBuilder(entry)
        hot = b.call(PTR, "malloc", [Constant(I64, HOT * 8)], name="hot")
        cold = b.call(PTR, "malloc", [Constant(I64, COLD * 8)], name="cold")
        b.br(header)
        b.set_block(header)
        i = b.phi(I64, name="i")
        s = b.phi(I64, name="s")
        b.condbr(b.icmp("slt", i, COLD), body, done)
        b.set_block(body)
        hv = b.load(I64, b.gep(hot, b.srem(i, HOT), 8))
        cv = b.load(I64, b.gep(cold, i, 8))
        s2 = b.add(s, b.add(hv, cv))
        i2 = b.add(i, 1)
        b.br(header)
        i.add_incoming(Constant(I64, 0), entry)
        i.add_incoming(i2, body)
        s.add_incoming(Constant(I64, 0), entry)
        s.add_incoming(s2, body)
        b.set_block(done)
        b.ret(s)
        return m

    result = ExperimentResult(
        "ablation_heap_pruning",
        "Profile-guided heap pruning: hot table pinned local",
        "configuration",
        ["no pruning", "pruning (1KB pin budget)"],
        "cycles / guards executed",
    )
    profile = profile_module(build())
    cycles: List[float] = []
    guards: List[float] = []
    for budget in (0, 1024):
        module = build()
        config = CompilerConfig(
            object_size=4 * KB,
            chunking=ChunkingPolicy.NONE,
            pin_budget_bytes=budget,
        )
        compiled = TrackFMCompiler(config).compile(module, profile=profile)
        rt = TrackFMRuntime(
            PoolConfig(object_size=4 * KB, local_memory=16 * KB, heap_size=1 * MB)
        )
        TrackFMProgram(compiled.module, rt).run("main")
        cycles.append(rt.metrics.cycles)
        guards.append(float(rt.metrics.total_guards))
    result.add_series("cycles", cycles)
    result.add_series("guards", guards)
    result.note(
        f"pruning saves {100 * (1 - cycles[1] / cycles[0]):.0f}% of cycles by "
        "eliding the hot table's guards"
    )
    return result


def ablation_chase_prefetch() -> ExperimentResult:
    """Pointer-chase prefetching (§5 extension) on a linked-list walk."""
    from repro.compiler.pipeline import ChunkingPolicy, CompilerConfig, TrackFMCompiler
    from repro.machine.cache import AlwaysHitCache
    from repro.sim.irrun import TrackFMProgram

    # Reuse the bench-grade list builder from the test corpus shape:
    # 4096 nodes of 64 bytes, walked once, 16 KB local memory.
    from repro.ir import IRBuilder, I64, PTR, Module
    from repro.ir.values import Constant, null_ptr

    N, NODE = 4096, 64

    def build() -> Module:
        m = Module("chase-ablation")
        f = m.add_function("main", I64)
        entry, bh, bb, mid, wh, wb, done = (
            f.add_block(x) for x in ("entry", "bh", "bb", "mid", "wh", "wb", "done")
        )
        b = IRBuilder(entry)
        base = b.call(PTR, "malloc", [Constant(I64, N * NODE)], name="base")
        b.br(bh)
        b.set_block(bh)
        i = b.phi(I64, name="i")
        b.condbr(b.icmp("slt", i, N), bb, mid)
        b.set_block(bb)
        node = b.gep(base, i, NODE)
        b.store(i, node)
        i2 = b.add(i, 1)
        nxt = b.select(b.icmp("eq", i2, N), null_ptr(), b.gep(base, i2, NODE))
        b.store(nxt, b.gep(node, 1, 8))
        b.br(bh)
        i.add_incoming(Constant(I64, 0), entry)
        i.add_incoming(i2, bb)
        b.set_block(mid)
        b.br(wh)
        b.set_block(wh)
        p = b.phi(PTR, name="p")
        s = b.phi(I64, name="s")
        b.condbr(b.icmp("ne", p, null_ptr()), wb, done)
        b.set_block(wb)
        s2 = b.add(s, b.load(I64, p))
        nextp = b.load(PTR, b.gep(p, 1, 8))
        b.br(wh)
        p.add_incoming(base, mid)
        p.add_incoming(nextp, wb)
        s.add_incoming(Constant(I64, 0), mid)
        s.add_incoming(s2, wb)
        b.set_block(done)
        b.ret(s)
        return m

    result = ExperimentResult(
        "ablation_chase_prefetch",
        "Greedy pointer-chase prefetching on a linked-list walk",
        "configuration",
        ["plain guards", "chase prefetch"],
        "cycles / slow-path guards",
    )
    cycles: List[float] = []
    slow: List[float] = []
    for chase in (False, True):
        module = build()
        config = CompilerConfig(
            chunking=ChunkingPolicy.NONE, enable_chase_prefetch=chase
        )
        compiled = TrackFMCompiler(config).compile(module)
        rt = TrackFMRuntime(
            PoolConfig(object_size=4 * KB, local_memory=16 * KB, heap_size=1 * MB),
            cache=AlwaysHitCache(),
        )
        TrackFMProgram(compiled.module, rt).run("main")
        cycles.append(rt.metrics.cycles)
        from repro.machine.costs import GuardKind

        slow.append(float(rt.metrics.guard_count(GuardKind.SLOW)))
    result.add_series("cycles", cycles)
    result.add_series("slow guards", slow)
    result.note(
        f"chase prefetching: {cycles[0] / cycles[1]:.2f}x whole-program "
        "(the walk phase alone benefits most)"
    )
    return result


def ablation_multisize(
    scale: ScaleModel = ScaleModel(factor=256),
) -> ExperimentResult:
    """Multiple object sizes (§3.2 future work) on the hashmap workload.

    One application, two access patterns: 4-byte random lookups (wants
    64 B objects) plus a streaming key trace (wants 4 KB).  A single
    compile-time size must compromise; per-site classes need not.
    """
    from repro.units import MB as _MB
    from repro.workloads.hashmap import HashmapWorkload

    # A trace-heavy pass: few point lookups, a large streamed key log —
    # the regime where the single-size compromise is visible (a
    # lookup-dominated mix is simply "64B everywhere"; see Fig. 9).
    working_set = 8 * _MB
    wl = HashmapWorkload(
        working_set=working_set,
        n_lookups=10_000,
        trace_bytes=8 * _MB,
    )
    local = working_set // 2
    del scale
    configs = ["64B everywhere", "4KB everywhere", "multi: 64B buckets + 4KB trace"]
    result = ExperimentResult(
        "ablation_multisize",
        "Single vs per-site object sizes (hashmap + streaming trace)",
        "configuration",
        configs,
        "cycles / bytes fetched",
    )
    runs = [
        wl.run_trackfm(object_size=64, local_memory=local),
        wl.run_trackfm(object_size=4 * KB, local_memory=local),
        wl.run_trackfm_multisize(64, 4 * KB, local),
    ]
    result.add_series("cycles", [r.cycles for r in runs])
    result.add_series(
        "bytes fetched", [float(r.metrics.bytes_fetched) for r in runs]
    )
    best_single = min(runs[0].cycles, runs[1].cycles)
    result.note(
        f"per-site classes beat the best single size by "
        f"{100 * (1 - runs[2].cycles / best_single):.0f}%"
    )
    return result


def ablation_offload() -> ExperimentResult:
    """Computation offload (§5 extension): remote reduce vs fetch-and-sum."""
    from repro.bench.compile_costs import _build_sum_loop
    from repro.compiler.pipeline import ChunkingPolicy, CompilerConfig, TrackFMCompiler
    from repro.machine.cache import AlwaysHitCache
    from repro.sim.irrun import TrackFMProgram

    result = ExperimentResult(
        "ablation_offload",
        "Near-data processing: offloaded reduce vs fetch-and-compute",
        "configuration",
        ["fetch + chunk + prefetch", "offloaded reduce"],
        "cycles / bytes fetched",
    )
    cycles: List[float] = []
    fetched: List[float] = []
    for offload in (False, True):
        module = _build_sum_loop(32_768)  # 256 KB summed once; 16 KB local
        config = CompilerConfig(
            chunking=ChunkingPolicy.COST_MODEL,
            enable_offload=offload,
            offload_threshold_bytes=64 * KB,
        )
        compiled = TrackFMCompiler(config).compile(module)
        rt = TrackFMRuntime(
            PoolConfig(object_size=4 * KB, local_memory=16 * KB, heap_size=1 * MB),
            cache=AlwaysHitCache(),
        )
        TrackFMProgram(compiled.module, rt, max_steps=10_000_000).run("main")
        cycles.append(rt.metrics.cycles)
        fetched.append(float(rt.metrics.bytes_fetched))
    result.add_series("cycles", cycles)
    result.add_series("bytes fetched", fetched)
    result.note(
        f"offload: {cycles[0] / cycles[1]:.1f}x faster, "
        f"{fetched[0] / max(fetched[1], 1):.0f}x less data moved"
    )
    return result


def ablation_hybrid_memcached(
    scale: ScaleModel = ScaleModel(factor=512),
    skews: Sequence[float] = (1.0, 1.1, 1.2, 1.3),
) -> ExperimentResult:
    """Hybrid placement (§5): pages for the bucket array, objects for items."""
    working_set = scale.bytes(12 * GB)
    local = scale.bytes(1 * GB)
    n = scale.count(100_000_000, floor=100_000)
    result = ExperimentResult(
        "ablation_hybrid_memcached",
        "memcached: hybrid kernel+compiler placement vs pure systems",
        "zipf skew",
        list(skews),
        "throughput (KOps/s)",
    )
    tfm_tp, fsw_tp, hyb_tp = [], [], []
    for skew in skews:
        wl = MemcachedWorkload(working_set=working_set, n_keys=n, n_ops=n, skew=skew)
        tfm_tp.append(wl.run_trackfm(64, local).throughput_kops(CPU_HZ))
        fsw_tp.append(wl.run_fastswap(local).throughput_kops(CPU_HZ))
        hyb_tp.append(wl.run_hybrid(64, local).throughput_kops(CPU_HZ))
    result.add_series("TrackFM", tfm_tp)
    result.add_series("Fastswap", fsw_tp)
    result.add_series("Hybrid", hyb_tp)
    result.note(
        "hybrid ~= TrackFM and well above Fastswap: page-backing the "
        "dense bucket array removes its guards at no amplification cost, "
        "but the items' share of local memory shrinks in exchange"
    )
    return result
