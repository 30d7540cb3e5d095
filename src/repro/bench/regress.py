"""Benchmark baselines: the perf + semantics regression gate.

Every simulated number in this repro flows through the interpreter, so
the interpreter's speed *and* its exact semantics are product surface.
This module freezes both behind checked-in baselines:

* a **semantic fingerprint** per workload — the return value, the
  dynamic step count, and the full :meth:`Metrics.as_dict` of a
  TrackFM-compiled run on a memory-constrained far-memory runtime.
  Fingerprints must match **exactly**: the simulation is deterministic,
  so any diff is semantic drift, never noise;
* a **wall-clock measurement** — interpreted ops/sec of the raw module
  and the decoded-vs-legacy speedup.  Absolute ops/sec are recorded for
  trend-tracking but are host-specific; the *speedup ratio* is measured
  fresh on both engines each run, transfers across hosts, and is gated
  with a fixed tolerance band (``TOLERANCE``).

Baselines live in ``benchmarks/baselines/BENCH_interp_<name>.json``::

    python -m repro.bench regress --record   # (re)write baselines
    python -m repro.bench regress --check    # gate (CI runs this)

Re-record after an *intentional* semantic or performance change and
commit the diff; ``docs/performance.md`` documents the policy.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.bench import gate
from repro.bench.gate import Failure, Gate
from repro.ir.module import Module

#: Workload seeds are fixed: the fingerprints below must be
#: reproducible bit for bit from a clean checkout.
HASHMAP_SEED = 7
CHASE_SEED = 3
CHASE_NODES = 1024
CHASE_NODE_BYTES = 64

#: Perf-measurement shape: one warm-up run (which also pays the decode),
#: then best-of-``REPEATS`` timed runs.
REPEATS = 5

#: Tolerance band for the decoded-vs-legacy speedup gate: the measured
#: speedup may fall at most this fraction below the recorded one.
#: Fingerprints take no tolerance — they must match exactly.
TOLERANCE = 0.35


def _build_chase_module() -> Module:
    """A linked-list walk in stride-shuffled order (poor locality).

    ``CHASE_NODES`` nodes of ``CHASE_NODE_BYTES``; node ``i`` links to
    node ``(i + stride) mod N`` with an odd, seed-derived stride coprime
    to N, so one walk visits every node in a cache-hostile order.
    """
    from repro.ir import IRBuilder
    from repro.ir.types import I64, PTR
    from repro.ir.values import Constant

    n, node_sz = CHASE_NODES, CHASE_NODE_BYTES
    stride = (2 * CHASE_SEED + 1) * 37 % n | 1
    m = Module("regress_chase")
    f = m.add_function("main", I64)
    entry = f.add_block("entry")
    bh, bb = f.add_block("bh"), f.add_block("bb")
    mid = f.add_block("mid")
    wh, wb = f.add_block("wh"), f.add_block("wb")
    done = f.add_block("done")
    b = IRBuilder(entry)
    base = b.call(PTR, "malloc", [Constant(I64, n * node_sz)], name="base")
    b.br(bh)
    b.set_block(bh)
    i = b.phi(I64, name="i")
    b.condbr(b.icmp("slt", i, n), bb, mid)
    b.set_block(bb)
    node = b.gep(base, i, node_sz)
    b.store(b.mul(i, 3), node)
    nxt_idx = b.and_(b.add(i, stride), n - 1)
    b.store(b.gep(base, nxt_idx, node_sz), b.gep(node, 1, 8))
    i2 = b.add(i, 1)
    b.br(bh)
    i.add_incoming(Constant(I64, 0), entry)
    i.add_incoming(i2, bb)
    b.set_block(mid)
    b.br(wh)
    # Walk exactly n hops starting at node 0, summing payloads.
    b.set_block(wh)
    k = b.phi(I64, name="k")
    p = b.phi(PTR, name="p")
    s = b.phi(I64, name="s")
    b.condbr(b.icmp("slt", k, n), wb, done)
    b.set_block(wb)
    s2 = b.add(s, b.load(I64, p))
    nextp = b.load(PTR, b.gep(p, 1, 8))
    k2 = b.add(k, 1)
    b.br(wh)
    k.add_incoming(Constant(I64, 0), mid)
    k.add_incoming(k2, wb)
    p.add_incoming(base, mid)
    p.add_incoming(nextp, wb)
    s.add_incoming(Constant(I64, 0), mid)
    s.add_incoming(s2, wb)
    b.set_block(done)
    b.ret(s)
    return m


def _build_stream() -> Module:
    from repro.trace.drivers import _build_stream_module

    return _build_stream_module()


def _build_hashmap() -> Module:
    from repro.trace.drivers import _build_hashmap_module

    return _build_hashmap_module(HASHMAP_SEED)


WORKLOADS: Dict[str, Callable[[], Module]] = {
    "stream": _build_stream,
    "hashmap": _build_hashmap,
    "chase": _build_chase_module,
}


# -- measurement --------------------------------------------------------------


def fingerprint_run(build: Callable[[], Module]) -> Dict[str, object]:
    """TrackFM-compile the workload and run it on a small far runtime.

    Returns the exact-match fingerprint: value, interpreter steps, and
    the runtime's canonical :meth:`Metrics.as_dict`.  Everything here is
    deterministic — fixed seeds, ``AlwaysHitCache``, no wall clock.
    """
    from repro.aifm.pool import PoolConfig
    from repro.compiler import CompilerConfig, TrackFMCompiler
    from repro.machine.cache import AlwaysHitCache
    from repro.sim.irrun import TrackFMProgram
    from repro.trackfm.runtime import TrackFMRuntime
    from repro.units import KB, MB

    compiled = TrackFMCompiler(CompilerConfig()).compile(build())
    runtime = TrackFMRuntime(
        PoolConfig(object_size=256, local_memory=2 * KB, heap_size=1 * MB),
        cache=AlwaysHitCache(),
    )
    result = TrackFMProgram(compiled.module, runtime).run("main")
    return {
        "value": result.value,
        "steps": result.steps,
        "metrics": runtime.metrics.as_dict(),
    }


def measure_engines(
    build: Callable[[], Module], engines: Sequence[str], repeats: int = REPEATS
) -> Dict[str, Dict[str, float]]:
    """Best-of-``repeats`` interpretation rate of the raw module, per engine.

    The first (untimed) run on each engine pays the pre-decode, so the
    timed runs measure steady-state interpretation — the quantity the
    decode cache exists to make fast.  Each repeat times every engine
    once, back to back, so host drift over the measurement lands on all
    engines alike instead of on one side of their ratio.
    """
    from repro.sim.interpreter import Interpreter

    modules = {engine: build() for engine in engines}
    for engine in engines:
        Interpreter(modules[engine], engine=engine).run("main")
    best = dict.fromkeys(engines, float("inf"))
    steps = dict.fromkeys(engines, 0)
    for _ in range(repeats):
        for engine in engines:
            interp = Interpreter(modules[engine], engine=engine)
            t0 = time.perf_counter()
            result = interp.run("main")
            best[engine] = min(best[engine], time.perf_counter() - t0)
            steps[engine] = result.steps
    return {
        engine: {
            "steps": steps[engine],
            "seconds": best[engine],
            "ops_per_sec": steps[engine] / best[engine],
        }
        for engine in engines
    }


def measure_bench(name: str) -> Dict[str, object]:
    """Full measurement for one workload: fingerprint + both engines."""
    build = WORKLOADS[name]
    rates = measure_engines(build, ("decoded", "legacy"))
    decoded, legacy = rates["decoded"], rates["legacy"]
    return {
        "bench": f"interp_{name}",
        "fingerprint": fingerprint_run(build),
        "ops_per_sec": decoded["ops_per_sec"],
        "legacy_ops_per_sec": legacy["ops_per_sec"],
        "speedup_vs_legacy": decoded["ops_per_sec"] / legacy["ops_per_sec"],
        "interp_steps": decoded["steps"],
    }


# -- the gate -----------------------------------------------------------------


def invariants(
    measured: Dict[str, object], baseline: Dict[str, object]
) -> List[Failure]:
    """The decoded-vs-legacy speedup may fall at most ``TOLERANCE``
    below the recorded one."""
    floor = float(baseline["speedup_vs_legacy"]) * (1.0 - TOLERANCE)
    speedup = float(measured["speedup_vs_legacy"])
    if speedup < floor:
        detail = f"speedup {speedup:.2f}x below floor {floor:.2f}x"
        return [("speedup-regression", detail)]
    return []


GATE = Gate(
    name="regress",
    prefix="BENCH_interp_",
    benches=tuple(WORKLOADS),
    measure=measure_bench,
    command="python -m repro.bench regress",
    exact_field="fingerprint",
    invariants=invariants,
)


def main(argv: Optional[List[str]] = None) -> int:
    return gate.run(GATE, gate.parser(GATE).parse_args(argv))

