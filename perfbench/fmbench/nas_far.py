"""``nas_far``: the five NAS mini-kernels, compiled and run on far memory.

Each kernel is built in IR by ``repro.workloads.nas_kernels``, its LCG
fill seeds re-derived from the workload seed, compiled by
``TrackFMCompiler`` (default cost-model chunking and prefetch) and run
by ``TrackFMProgram`` on a ``TrackFMRuntime`` whose local memory is a
sixteenth of the kernel's heap data.  Chunked streams (MG, SP) run
beside naive-guarded gathers and scatters (CG, IS, FT).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from fmbench import oracles
from fmbench.core import Evaluation
from fmbench.host import nearest_rank

#: Compiler and runtime object size.
OBJECT_SIZE = 256
#: Local memory = heap data / LOCAL_DIVISOR (memory pressure).
LOCAL_DIVISOR = 16
MAX_STEPS = 100_000_000

#: kernel -> (IR constructor in nas_kernels, its args, fill seeds it uses, heap data bytes)
KERNELS: Dict[str, Tuple[str, tuple, Tuple[int, ...], int]] = {
    "CG": ("build_cg_kernel", (2048, 4), (1, 2, 3), 2048 * 4 * 16 + 2048 * 8),
    "IS": ("build_is_kernel", (8192, 1024), (7,), 8192 * 8 + 1024 * 8),
    "MG": ("build_mg_kernel", (8192,), (11,), 2 * 8192 * 8),
    "SP": ("build_sp_kernel", (8192,), (13,), 8192 * 8),
    "FT": ("build_ft_kernel", (96, 96), (17,), 96 * 96 * 8),
}

REFERENCES: Dict[str, Callable[..., int]] = {
    "CG": oracles.cg_value,
    "IS": oracles.is_value,
    "MG": oracles.mg_value,
    "SP": oracles.sp_value,
    "FT": oracles.ft_value,
}


def kernel_seeds(workload_seed: int, name: str) -> Dict[int, int]:
    """Stock fill seed -> the seed this workload seed uses instead."""
    return {base: oracles.mix_seed(workload_seed, base) for base in KERNELS[name][2]}


def reseed(module, seeds: Dict[int, int]) -> int:
    """Point every LCG fill of ``module`` at its derived seed.

    The stock kernel constructors store a literal seed into each fill loop's
    ``<prefix>.state`` stack slot; exactly those stores are rewritten.
    Returns how many were.
    """
    from repro.ir.instructions import Alloca, Store
    from repro.ir.types import I64
    from repro.ir.values import Constant

    rewritten = 0
    for func in module.functions():
        for block in func.blocks:
            for inst in block.instructions:
                if (
                    isinstance(inst, Store)
                    and isinstance(inst.pointer, Alloca)
                    and inst.pointer.name.endswith(".state")
                    and isinstance(inst.value, Constant)
                    and inst.value.value in seeds
                ):
                    inst.replace_uses_of(inst.value, Constant(I64, seeds[inst.value.value]))
                    rewritten += 1
    return rewritten


@dataclass
class KernelSetup:
    name: str
    module: object
    compiler: object
    runtime: object
    seeds: Dict[int, int]


@dataclass
class KernelOutcome:
    value: int
    steps: int
    compile_result: object
    program: object


class NasFar:
    name = "nas_far"
    def import_program(self) -> None:
        import repro.compiler.pipeline  # noqa: F401
        import repro.sim.irrun  # noqa: F401
        import repro.workloads.nas_kernels  # noqa: F401

    def setup(self, seed: int) -> List[KernelSetup]:
        from repro import CompilerConfig, PoolConfig, TrackFMCompiler, TrackFMRuntime
        from repro.workloads import nas_kernels

        kernels = []
        for name, (build, args, _bases, data_bytes) in KERNELS.items():
            module = getattr(nas_kernels, build)(*args)
            seeds = kernel_seeds(seed, name)
            if reseed(module, seeds) != len(seeds):
                raise RuntimeError(f"{name}: could not reseed every LCG fill")
            local = max(OBJECT_SIZE, data_bytes // LOCAL_DIVISOR // OBJECT_SIZE * OBJECT_SIZE)
            runtime = TrackFMRuntime(
                PoolConfig(
                    object_size=OBJECT_SIZE,
                    local_memory=local,
                    heap_size=2 * data_bytes + 64 * OBJECT_SIZE,
                )
            )
            compiler = TrackFMCompiler(CompilerConfig(object_size=OBJECT_SIZE))
            kernels.append(KernelSetup(name, module, compiler, runtime, seeds))
        return kernels

    def run(self, kernels: List[KernelSetup], instrument: Optional[Callable] = None):
        from repro.sim.irrun import TrackFMProgram

        outcomes = []
        for k in kernels:
            compiled = k.compiler.compile(k.module)
            program = TrackFMProgram(compiled.module, k.runtime, max_steps=MAX_STEPS)
            if instrument is not None:
                instrument(program)
            result = program.run("main")
            outcomes.append(KernelOutcome(result.value, result.steps, compiled, program))
        return outcomes

    def instrumented_objects(self, kernels: List[KernelSetup]) -> list:
        return [k.compiler for k in kernels]

    def evaluate(self, kernels: List[KernelSetup], outcomes: List[KernelOutcome],
                 references: Dict[str, int]) -> Evaluation:
        from repro.machine.costs import GuardKind

        failed = []
        cycles, accesses, moved, steps = [], 0, 0, 0
        guards = {kind.name: 0 for kind in GuardKind}
        counters = {
            "remote_fetches": 0, "bytes_fetched": 0, "evictions": 0,
            "prefetches_issued": 0, "prefetches_useful": 0,
            "retries": 0, "timeouts": 0, "drops": 0,
            "guards_inserted": 0, "accesses_chunked": 0, "insts_after": 0,
        }
        per_kernel = {}
        for k, out in zip(kernels, outcomes):
            m = k.runtime.metrics
            if out.value != references[k.name]:
                failed.append(k.name)
            cycles.append(m.cycles)
            accesses += m.accesses
            moved += m.bytes_fetched + m.bytes_evacuated
            steps += out.steps
            for kind in GuardKind:
                guards[kind.name] += m.guard_count(kind)
            for field in ("remote_fetches", "bytes_fetched", "evictions",
                          "prefetches_issued", "prefetches_useful",
                          "retries", "timeouts", "drops"):
                counters[field] += getattr(m, field)
            cr = out.compile_result
            counters["guards_inserted"] += cr.guards_inserted
            counters["accesses_chunked"] += cr.accesses_chunked
            counters["insts_after"] += cr.instructions_after
            per_kernel[k.name] = {
                "value": out.value, "reference": references[k.name],
                "sim_cycles": m.cycles, "accesses": m.accesses,
                "bytes_moved": m.bytes_fetched + m.bytes_evacuated,
                "steps": out.steps, "guards_inserted": cr.guards_inserted,
                "accesses_chunked": cr.accesses_chunked,
                "local_memory": k.runtime.pool.config.local_memory,
                "heap_size": k.runtime.pool.config.heap_size,
            }
        counters["steps"] = steps
        counters["guards"] = guards
        sim = {
            "requests": len(kernels),
            "accesses": accesses,
            "cycles": cycles,
            "bytes_moved": moved,
            "p50": nearest_rank(cycles, 50),
            "p99": nearest_rank(cycles, 99),
        }
        return Evaluation(
            attempted=len(kernels),
            failed=len(failed),
            errors=[f"{name}: value differs from its Python reference" for name in failed],
            sim=sim,
            counters=counters,
            detail={
                "kernels": per_kernel,
                "sim_cycles_geomean_over": "the 5 kernels",
                "percentile_samples": len(cycles),
                "percentile_of": "per-kernel simulated cycles (nearest rank)",
            },
            cross={
                "steps": steps,
                # The interpreter's own step counter, read off each program.
                "interp_steps": sum(out.program.interp.steps for out in outcomes),
                "guard_calls": _guard_calls(guards),
                "remote_fetches": counters["remote_fetches"],
            },
        )

    def references(self, kernels: List[KernelSetup]) -> Dict[str, int]:
        return {
            k.name: REFERENCES[k.name](k.seeds, *KERNELS[k.name][1]) for k in kernels
        }


def _guard_calls(guards: Dict[str, int]) -> int:
    """Guard executions that go through ``guard``/``locality_guard``."""
    return sum(guards.get(kind, 0) for kind in ("FAST", "SLOW", "LOCALITY", "CUSTODY_MISS"))

