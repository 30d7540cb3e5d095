"""Computation offload / near-data processing (§5 extension)."""

import pytest

from repro.aifm.pool import PoolConfig
from repro.bench.ablations import ablation_offload
from repro.compiler import ChunkingPolicy, CompilerConfig, TrackFMCompiler
from repro.compiler.guard_analysis import GuardAnalysisPass
from repro.compiler.offload import OffloadPass, find_offload_candidates
from repro.compiler.pass_manager import PassContext, PassManager
from repro.ir import IRBuilder, I64, PTR, Module, verify_module
from repro.ir.instructions import Call
from repro.ir.values import Constant
from repro.machine.cache import AlwaysHitCache
from repro.sim.interpreter import Interpreter
from repro.sim.irrun import TrackFMProgram
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import KB, MB

from irprograms import build_sum_loop, build_write_then_sum


def analyzed(m):
    ctx = PassContext(config=CompilerConfig())
    GuardAnalysisPass().run(m, ctx)
    return m


def make_runtime(local=16 * KB):
    return TrackFMRuntime(
        PoolConfig(object_size=4 * KB, local_memory=local, heap_size=2 * MB),
        cache=AlwaysHitCache(),
    )


class TestCandidateMatching:
    def test_sum_loop_matches(self):
        m = analyzed(build_sum_loop(n=10_000))
        cands = find_offload_candidates(m.get_function("main"))
        assert len(cands) == 1
        c = cands[0]
        assert c.op == "add"
        assert c.elem_size == 8
        assert c.footprint_bytes(1) == 80_000

    def test_loop_with_store_rejected(self):
        m = analyzed(build_write_then_sum(1000))
        cands = find_offload_candidates(m.get_function("main"))
        # Only the read loop matches; the write loop has a store.
        assert len(cands) == 1
        assert cands[0].loop.header.name == "rh"

    def test_unguarded_loop_rejected(self):
        # Stack-array sums never go remote: nothing to offload.
        m = Module()
        f = m.add_function("main", I64)
        entry, header, body, exit_ = (
            f.add_block(x) for x in ("entry", "header", "body", "exit")
        )
        b = IRBuilder(entry)
        p = b.alloca(80)
        b.br(header)
        b.set_block(header)
        i = b.phi(I64, name="i")
        s = b.phi(I64, name="s")
        b.condbr(b.icmp("slt", i, 10), body, exit_)
        b.set_block(body)
        v = b.load(I64, b.gep(p, i, 8))
        s2 = b.add(s, v)
        i2 = b.add(i, 1)
        b.br(header)
        i.add_incoming(Constant(I64, 0), entry)
        i.add_incoming(i2, body)
        s.add_incoming(Constant(I64, 0), entry)
        s.add_incoming(s2, body)
        b.set_block(exit_)
        b.ret(s)
        analyzed(m)
        assert find_offload_candidates(m.get_function("main")) == []

    def test_escaping_accumulator_rejected(self):
        # acc used by another instruction inside the loop: partial sums
        # escape, cannot offload.
        m = build_sum_loop(n=100)
        f = m.get_function("main")
        body = f.get_block("body")
        header = f.get_block("header")
        s_phi = next(p for p in header.phis() if p.name == "s")
        b = IRBuilder(body)
        # Insert an extra use of s before the terminator.
        from repro.ir.instructions import BinOp

        extra = BinOp("add", s_phi, Constant(I64, 1))
        extra.name = "leak"
        body.insert(0, extra)
        analyzed(m)
        assert find_offload_candidates(f) == []


class TestTransform:
    def compile_offload(self, m, threshold=1):
        config = CompilerConfig(
            chunking=ChunkingPolicy.NONE,
            enable_offload=True,
            offload_threshold_bytes=threshold,
        )
        return TrackFMCompiler(config).compile(m)

    def test_loop_replaced_by_call(self):
        m = build_sum_loop(n=10_000)
        res = self.compile_offload(m)
        assert res.ctx.get_stat("offload.loops_offloaded") == 1
        f = m.get_function("main")
        calls = [
            i for i in f.instructions()
            if isinstance(i, Call) and i.callee == "tfm_offload_reduce"
        ]
        assert len(calls) == 1
        # The loop blocks are gone.
        assert all(b.name not in ("header", "body") for b in f.blocks)
        verify_module(m)

    def test_threshold_respected(self):
        m = build_sum_loop(n=100)  # 800 bytes
        res = self.compile_offload(m, threshold=1 * MB)
        assert res.ctx.get_stat("offload.loops_offloaded", ) == 0
        assert res.ctx.get_stat("offload.below_threshold") == 1

    def test_semantics_preserved(self):
        expected = Interpreter(build_write_then_sum(4000)).run("main").value
        m = build_write_then_sum(4000)
        res = self.compile_offload(m)
        assert res.ctx.get_stat("offload.loops_offloaded") == 1
        rt = make_runtime()
        got = TrackFMProgram(res.module, rt).run("main").value
        assert got == expected

    def test_semantics_preserved_i32(self):
        expected = Interpreter(build_write_then_sum(3000, elem=4)).run("main").value
        m = build_write_then_sum(3000, elem=4)
        res = self.compile_offload(m)
        rt = make_runtime()
        got = TrackFMProgram(res.module, rt).run("main").value
        assert got == expected

    def test_offload_avoids_data_fetch(self):
        # The write loop dirties everything; the offloaded read loop
        # must flush dirty objects but fetch (almost) nothing.
        n = 8192  # 64 KB of data, 16 KB local
        m = build_write_then_sum(n)
        res = self.compile_offload(m)
        rt = make_runtime()
        TrackFMProgram(res.module, rt).run("main")
        offload_metrics = rt.metrics.snapshot()

        m2 = build_write_then_sum(n)
        res2 = TrackFMCompiler(
            CompilerConfig(chunking=ChunkingPolicy.NONE)
        ).compile(m2)
        rt2 = make_runtime()
        TrackFMProgram(res2.module, rt2).run("main")
        fetch_metrics = rt2.metrics

        # The write loop still fetches its objects; the offloaded read
        # loop replaces its entire fetch traffic with one 64B message.
        assert offload_metrics.bytes_fetched < fetch_metrics.bytes_fetched * 0.6
        assert offload_metrics.cycles < fetch_metrics.cycles

    def test_offloaded_reduce_beats_fetch_and_sum(self):
        # 256 KB summed once through 16 KB of local memory.
        result = ablation_offload()
        fetch, offload = result.get("cycles").values
        fetch_bytes, offload_bytes = result.get("bytes fetched").values
        assert offload < fetch / 3
        assert offload_bytes < fetch_bytes / 100

    def test_offload_flushes_dirty_objects(self):
        n = 8192
        m = build_write_then_sum(n)
        res = self.compile_offload(m)
        rt = make_runtime()
        TrackFMProgram(res.module, rt).run("main")
        # The locally-dirty objects were written back before the remote
        # scan (at least the ones still resident).
        assert rt.metrics.bytes_evacuated > 0

    def test_disabled_by_default(self):
        m = build_sum_loop(n=10_000)
        res = TrackFMCompiler(CompilerConfig()).compile(m)
        f = res.module.get_function("main")
        assert not any(
            isinstance(i, Call) and i.callee == "tfm_offload_reduce"
            for i in f.instructions()
        )
