"""Pointer-chase prefetching (§5 recursive-data-structure extension)."""

import pytest

from repro.aifm.pool import PoolConfig
from repro.bench.ablations import ablation_chase_prefetch
from repro.compiler import ChunkingPolicy, CompilerConfig, TrackFMCompiler
from repro.compiler.chase_prefetch import CHASED_MD, ChasePrefetchPass, _match_chase
from repro.compiler.guard_analysis import GuardAnalysisPass
from repro.compiler.pass_manager import PassContext, PassManager
from repro.analysis.loops import find_loops
from repro.ir import IRBuilder, I64, PTR, Module, verify_module
from repro.ir.instructions import Call
from repro.ir.values import Constant, null_ptr
from repro.machine.cache import AlwaysHitCache
from repro.sim.interpreter import Interpreter
from repro.sim.irrun import TrackFMProgram
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import KB, MB

NODE_BYTES = 16  # {i64 value, ptr next}


def build_list_walk(n_nodes: int = 256) -> Module:
    """Build a linked list (one node per iteration) and walk it.

    Nodes are 16 bytes {value, next}; the list is laid out in
    allocation order, one node per 16 bytes, so a walk crosses a 4 KB
    object every 256 nodes.  Returns sum of node values.
    """
    m = Module("listwalk")
    f = m.add_function("main", I64)
    entry, bh, bb, mid, wh, wb, done = (
        f.add_block(x) for x in ("entry", "bh", "bb", "mid", "wh", "wb", "done")
    )
    b = IRBuilder(entry)
    base = b.call(PTR, "malloc", [Constant(I64, n_nodes * NODE_BYTES)], name="base")
    b.br(bh)

    # Build loop: node[i].value = i; node[i].next = &node[i+1] (or null).
    b.set_block(bh)
    i = b.phi(I64, name="i")
    b.condbr(b.icmp("slt", i, n_nodes), bb, mid)
    b.set_block(bb)
    node = b.gep(base, i, NODE_BYTES, name="node")
    b.store(i, node)
    i2 = b.add(i, 1, name="i2")
    is_last = b.icmp("eq", i2, n_nodes)
    succ = b.gep(base, i2, NODE_BYTES)
    nxt = b.select(is_last, null_ptr(), succ)
    b.store(nxt, b.gep(node, 1, 8))
    b.br(bh)
    i.add_incoming(Constant(I64, 0), entry)
    i.add_incoming(i2, bb)

    b.set_block(mid)
    b.br(wh)

    # Walk loop: while (p != null) { sum += p->value; p = p->next; }
    b.set_block(wh)
    p = b.phi(PTR, name="p")
    s = b.phi(I64, name="s")
    b.condbr(b.icmp("ne", p, null_ptr()), wb, done)
    b.set_block(wb)
    v = b.load(I64, p, name="v")
    s2 = b.add(s, v, name="s2")
    nextp = b.load(PTR, b.gep(p, 1, 8), name="nextp")
    b.br(wh)
    p.add_incoming(base, mid)
    p.add_incoming(nextp, wb)
    s.add_incoming(Constant(I64, 0), mid)
    s.add_incoming(s2, wb)

    b.set_block(done)
    b.ret(s)
    return m


def make_runtime():
    # Room for the current object, the prefetched next one, and slack:
    # tighter budgets make the evacuator race the walk (as on real AIFM,
    # where the evacuator needs headroom to be effective).
    return TrackFMRuntime(
        PoolConfig(object_size=4 * KB, local_memory=16 * KB, heap_size=1 * MB),
        cache=AlwaysHitCache(),
    )


class TestPatternDetection:
    def test_chase_recurrence_found(self):
        m = build_list_walk(64)
        f = m.get_function("main")
        loops = find_loops(f)
        walk = next(l for l in loops if l.header.name == "wh")
        patterns = _match_chase(walk)
        assert len(patterns) == 1
        assert patterns[0].next_offset == 8
        assert patterns[0].phi.name == "p"

    def test_build_loop_not_matched(self):
        m = build_list_walk(64)
        f = m.get_function("main")
        loops = find_loops(f)
        build = next(l for l in loops if l.header.name == "bh")
        assert _match_chase(build) == []

    def test_pass_rewrites_walk_accesses(self):
        m = build_list_walk(64)
        ctx = PassContext(config=CompilerConfig())
        PassManager([GuardAnalysisPass(), ChasePrefetchPass()]).run(m, ctx)
        f = m.get_function("main")
        chases = [
            inst
            for inst in f.instructions()
            if isinstance(inst, Call) and inst.callee.startswith("tfm_chase_deref")
        ]
        # The value load and the next-pointer load are both rewritten.
        assert len(chases) == 2
        assert ctx.get_stat("chase-prefetch.accesses_rewritten") == 2
        verify_module(m)


class TestEndToEnd:
    def expected(self, n):
        return n * (n - 1) // 2

    def compile_run(self, enable_chase, n_nodes=4096):
        m = build_list_walk(n_nodes)
        config = CompilerConfig(
            chunking=ChunkingPolicy.NONE, enable_chase_prefetch=enable_chase
        )
        compiled = TrackFMCompiler(config).compile(m)
        rt = make_runtime()
        value = TrackFMProgram(compiled.module, rt).run("main").value
        return value, rt.metrics

    def test_semantics_preserved(self):
        plain = Interpreter(build_list_walk(128)).run("main").value
        assert plain == self.expected(128)
        chased, _ = self.compile_run(True, n_nodes=1024)
        unchased, _ = self.compile_run(False, n_nodes=1024)
        assert chased == unchased == self.expected(1024)

    def test_chase_prefetch_speeds_up_cold_walk(self):
        _, with_chase = self.compile_run(True)
        _, without = self.compile_run(False)
        assert with_chase.cycles < without.cycles
        assert with_chase.prefetches_issued > 0
        # Prefetched objects turn slow paths into fast paths.
        from repro.machine.costs import GuardKind

        assert with_chase.guard_count(GuardKind.FAST) > without.guard_count(
            GuardKind.FAST
        )

    def test_chase_cuts_cycles_and_slow_guards(self):
        # 4096 64-byte nodes walked once through 16 KB of local memory.
        result = ablation_chase_prefetch()
        plain, chased = result.get("cycles").values
        plain_slow, chased_slow = result.get("slow guards").values
        assert chased < plain
        assert chased_slow < plain_slow

    def test_null_terminated_walk_handles_custody_miss(self):
        # The final iteration's next pointer is null: the chase deref
        # must pass it through without prefetching garbage.
        value, _metrics = self.compile_run(True, n_nodes=1024)
        assert value == self.expected(1024)
