"""Adaptive-hybrid benchmark + baseline gate: ``python -m repro.bench hybrid``.

Sweeps the adaptive hybrid data plane (docs/hybrid.md) against *both*
static tiers — a pure TrackFM object runtime and a pure kernel-paging
runtime, each given the adaptive runtime's whole local-memory budget —
across a local-memory-fraction × workload matrix:

* ``dense``  — repeated fine-stride sweeps of a small arena (paging's
  best case: faults amortize over reuse, hits are guard-free);
* ``sparse`` — scattered one-object probes over a large arena (object
  fetch's best case: no I/O amplification);
* ``phase``  — :class:`~repro.workloads.phase.PhaseShiftWorkload`, the
  mixed-density case neither static placement serves well.

Every cell is a deterministic replay, so the recorded reports are exact
(``==``, no tolerance) like the other baseline gates.  On top of the
bit-exact compare, ``--check`` enforces the adaptive plane's acceptance
bar from the measured numbers themselves: adaptive cycles must be
within ``TOLERANCE`` of the best static tier on **every** cell, and
must beat both statics outright on at least one mixed-density cell::

    python -m repro.bench hybrid            # print the matrix
    python -m repro.bench hybrid --record   # (re)write baselines
    python -m repro.bench hybrid --check    # gate (CI runs this)

Baselines live in ``benchmarks/baselines/BENCH_hybrid_<workload>.json``.
Re-record after an intentional selector/cost-model change and commit
the diff.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.aifm.pool import PoolConfig
from repro.bench import gate
from repro.bench.gate import Failure, Gate
from repro.fastswap.runtime import FastswapConfig, FastswapRuntime
from repro.hybrid.runtime import AdaptiveHybridRuntime
from repro.hybrid.selector import SelectorConfig
from repro.machine.costs import AccessKind
from repro.trackfm.runtime import TrackFMRuntime
from repro.units import BASE_PAGE
from repro.workloads.phase import PhaseShiftWorkload

OBJECT_SIZE = 256
ELEM = 8
SEED = 9

#: Fraction of the workload arena granted as local memory per cell; all
#: pressured — an online policy's payoff is steady state, and a run
#: whose arena fits local memory is all warmup and no steady state.
MEMORY_FRACTIONS = (0.25, 0.5, 0.75)

#: Adaptive cells must land within this factor of the best static tier.
TOLERANCE = 1.15

#: Reactive selector for the sweep: short epochs bound the per-phase
#: warmup on the wrong tier, and a small hysteresis band lets the phase
#: workload's density flips be tracked within a couple of epochs.
EPOCH_ACCESSES = 32
SELECTOR = SelectorConfig(hysteresis=0.05, min_accesses=4)

_LCG_MUL = 2654435761
_LCG_ADD = 40503


# -- the workload streams -----------------------------------------------------


DENSE_ARENA = 64 * 1024
DENSE_PASSES = 64
SPARSE_ARENA = 64 * 1024
SPARSE_PROBES = 4096


def _dense_stream() -> Iterator[Tuple[int, AccessKind]]:
    """Fine-stride sweeps: write pass, then read passes (steady reuse)."""
    for sweep in range(DENSE_PASSES):
        kind = AccessKind.WRITE if sweep == 0 else AccessKind.READ
        for off in range(0, DENSE_ARENA, 64):
            yield off, kind


def _sparse_stream() -> Iterator[Tuple[int, AccessKind]]:
    """LCG-scattered probes of one object per page: a tiny object
    working set strewn across many pages — object fetch's best case."""
    n_pages = SPARSE_ARENA // BASE_PAGE
    state = SEED & 0xFFFFFFFF
    for _ in range(SPARSE_PROBES):
        state = (state * _LCG_MUL + _LCG_ADD) & 0xFFFFFFFF
        yield (state % n_pages) * BASE_PAGE, AccessKind.READ


_PHASE = PhaseShiftWorkload(
    n_regions=8,
    region_bytes=4096,
    dense_stride=64,
    n_phases=6,
    dense_passes=16,
    sparse_probes=12,
    seed=SEED,
)

WORKLOADS: Dict[str, Tuple[int, Callable[[], Iterator[Tuple[int, AccessKind]]]]] = {
    "dense": (DENSE_ARENA, _dense_stream),
    "sparse": (SPARSE_ARENA, _sparse_stream),
    "phase": (_PHASE.arena_bytes, _PHASE.accesses),
}

#: Cells where neither static placement fits the whole run — the ones
#: the adaptive plane must win outright on at least one of.
MIXED_WORKLOADS = ("phase",)


# -- the three engines --------------------------------------------------------


def _replay(access: Callable[[int, AccessKind], float],
            stream: Iterator[Tuple[int, AccessKind]]) -> int:
    checksum = 0
    for offset, kind in stream:
        access(offset, kind)
        checksum = (checksum * 31 + offset + 1) & 0xFFFFFFFF
    return checksum


def _run_objects(workload: str, local_memory: int) -> Tuple[float, int]:
    arena, stream = WORKLOADS[workload]
    runtime = TrackFMRuntime(
        PoolConfig(
            object_size=OBJECT_SIZE,
            local_memory=max(local_memory, OBJECT_SIZE),
            heap_size=arena,
        )
    )
    runtime.initialize()
    ptr = runtime.tfm_malloc(arena)
    checksum = _replay(
        lambda off, kind: runtime.access(ptr + off, kind, ELEM), stream()
    )
    return runtime.metrics.cycles, checksum


def _run_pages(workload: str, local_memory: int) -> Tuple[float, int]:
    arena, stream = WORKLOADS[workload]
    runtime = FastswapRuntime(
        FastswapConfig(
            local_memory=max(local_memory, BASE_PAGE), heap_size=arena
        )
    )
    base = runtime.allocate(arena)
    checksum = _replay(
        lambda off, kind: runtime.access(base + off, kind, size=ELEM), stream()
    )
    return runtime.metrics.cycles, checksum


def _run_adaptive(workload: str, local_memory: int) -> Tuple[float, int, Dict[str, int]]:
    arena, stream = WORKLOADS[workload]
    runtime = AdaptiveHybridRuntime(
        local_memory=max(local_memory, 2 * BASE_PAGE),
        heap_size=arena,
        object_size=OBJECT_SIZE,
        epoch_accesses=EPOCH_ACCESSES,
        selector_config=SELECTOR,
    )
    runtime.initialize()
    ptr = runtime.tfm_malloc(arena)
    checksum = _replay(
        lambda off, kind: runtime.access(ptr + off, kind, ELEM), stream()
    )
    counters = {
        "tier_switches": runtime.metrics.tier_switches,
        "objects_migrated": runtime.metrics.objects_migrated,
        "epochs": runtime.epochs,
    }
    return runtime.metrics.cycles, checksum, counters


# -- cells + reports ----------------------------------------------------------


def run_cell(workload: str, fraction: float) -> Dict[str, object]:
    """One (workload, local-memory-fraction) cell, all three engines."""
    arena, _ = WORKLOADS[workload]
    local_memory = max(2 * BASE_PAGE, int(arena * fraction))
    objects_cycles, objects_value = _run_objects(workload, local_memory)
    pages_cycles, pages_value = _run_pages(workload, local_memory)
    adaptive_cycles, adaptive_value, counters = _run_adaptive(
        workload, local_memory
    )
    best_static = min(objects_cycles, pages_cycles)
    return {
        "fraction": fraction,
        "local_memory": local_memory,
        "objects_cycles": round(objects_cycles, 3),
        "pages_cycles": round(pages_cycles, 3),
        "adaptive_cycles": round(adaptive_cycles, 3),
        "adaptive": counters,
        "values_equal": objects_value == pages_value == adaptive_value,
        "value": adaptive_value,
        "within_band": adaptive_cycles <= best_static * TOLERANCE,
        "wins_outright": adaptive_cycles < best_static,
    }


def measure(workload: str) -> Dict[str, object]:
    return {
        "bench": f"hybrid_{workload}",
        "workload": workload,
        "tolerance": TOLERANCE,
        "seed": SEED,
        "cells": {
            f"mem_{int(f * 100)}": run_cell(workload, f)
            for f in MEMORY_FRACTIONS
        },
    }


def invariants(
    measured: Dict[str, object], baseline: Dict[str, object]
) -> List[Failure]:
    """Every cell computes one value on all three engines within
    ``TOLERANCE`` of the best static tier; a mixed workload also beats
    both statics outright on at least one cell."""
    cells: Dict[str, Dict[str, object]] = measured["cells"]  # type: ignore[assignment]
    failures: List[Failure] = []
    out = [c for c, d in cells.items() if not (d["within_band"] and d["values_equal"])]
    if out:
        failures.append(("out-of-band", out))
    mixed = measured["workload"] in MIXED_WORKLOADS
    if mixed and not any(d["wins_outright"] for d in cells.values()):
        failures.append(("no-outright-win", sorted(cells)))
    return failures


GATE = Gate(
    name="hybrid",
    prefix="BENCH_hybrid_",
    benches=tuple(sorted(WORKLOADS)),
    measure=measure,
    command="python -m repro.bench hybrid",
    invariants=invariants,
)


# -- human-readable matrix ----------------------------------------------------


def curves_text() -> str:
    lines = [
        "hybrid: adaptive vs best-of-both-static "
        f"(object size {OBJECT_SIZE}, tolerance {TOLERANCE}x, seed {SEED})",
        "",
        f"{'workload':>8} {'mem%':>5} {'objects':>12} {'pages':>12} "
        f"{'adaptive':>12} {'switches':>9} {'verdict':>9}",
    ]
    for name in sorted(WORKLOADS):
        for fraction in MEMORY_FRACTIONS:
            cell = run_cell(name, fraction)
            verdict = (
                "wins"
                if cell["wins_outright"]
                else ("in-band" if cell["within_band"] else "OUT")
            )
            lines.append(
                f"{name:>8} {int(fraction * 100):>5} "
                f"{cell['objects_cycles']:>12.0f} {cell['pages_cycles']:>12.0f} "
                f"{cell['adaptive_cycles']:>12.0f} "
                f"{cell['adaptive']['tier_switches']:>9} {verdict:>9}"
            )
    return "\n".join(lines)


# -- CLI ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    args = gate.parser(GATE, curves=True).parse_args(argv)
    if args.record or args.check:
        return gate.run(GATE, args)
    print(curves_text())
    return 0

