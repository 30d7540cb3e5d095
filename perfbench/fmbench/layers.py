"""The layer table and the wrappers that trace it, outside in.

Every layer is a set of public callables of the program under test.
:data:`LAYERS` names them; a :class:`LayerTracer` wraps each one with a
:class:`~fmbench.spans.SpanRecorder` span for the traced run only and
restores the originals afterwards.  Wrappers go on the attribute the
caller actually looks up:

* module functions that callers import lazily (``from repro.sim.che
  import lru_hit_rate`` inside a function body) are patched on their
  module, so the next lookup finds the wrapper;
* classes whose instances the program builds internally (the runtimes
  of the paper experiments) are patched on the class;
* runtimes, clusters and programs the benchmark builds itself are
  patched per instance, so nothing else in the process is affected.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Optional, Tuple

from fmbench.core import PAPER_EXPERIMENTS
from fmbench.spans import SpanRecorder

#: layer -> public boundaries, as ``(span name, owner, attribute)``.
#: ``owner`` is ``module:path`` for module/class attributes patched
#: globally, or a role (``runtime``, ``pool``, ...) for per-instance
#: attributes patched by :meth:`LayerTracer.instrument`.
LAYERS: Dict[str, Tuple[Tuple[str, str, str], ...]] = {
    "compiler": (("compiler.compile", "compiler", "compile"),),
    "sim.decode": (("sim.decode.decode_module", "repro.sim.decode", "decode_module"),),
    "sim.interpreter": (("sim.interpreter.run", "program", "run"),),
    # Every registered ``tfm_*`` intrinsic; names are filled in per program.
    "sim.irrun": (("sim.irrun.<intrinsic>", "program", "intrinsics"),),
    "trackfm": (
        ("trackfm.guard", "guards", "guard"),
        ("trackfm.guard", "guards", "locality_guard"),
        ("trackfm.access", "runtime", "access"),
        ("trackfm.chunk", "runtime", "chunk_access"),
    ),
    "aifm": (
        ("aifm.ensure_local", "pool", "ensure_local"),
        ("aifm.prefetch", "pool", "prefetch"),
        ("aifm.expel", "pool", "expel"),
        ("aifm.materialize", "pool", "materialize"),
        ("aifm.evacuate", "evacuator", "process"),
    ),
    "net": (
        ("net.fetch", "backend", "fetch"),
        ("net.evict", "backend", "evict"),
        ("net.admit", "backend", "admit"),
    ),
    "serve": (
        ("serve.schedule", "repro.serve.traffic", "generate_schedule"),
        ("serve.request", "cluster", "serve"),
        ("serve.shard_service", "shard", "service"),
        ("serve.sim_loop", "simulation", "run"),
    ),
    "serve.replication": tuple(
        (f"serve.replication.{attr}", "cluster", attr)
        for attr in (
            "tick", "failover", "rebalance", "anti_entropy",
            "partition_shard", "heal_shard",
        )
    ),
    "sim.che": tuple(
        (f"sim.che.{attr}", "repro.sim.che", attr)
        for attr in ("lru_hit_rate", "characteristic_time", "per_granule_hit_rates")
    ),
    "fastswap": tuple(
        (f"fastswap.{attr}", "repro.fastswap.runtime:FastswapRuntime", attr)
        for attr in ("access", "sequential_scan", "fault_probe")
    ),
    "hybrid": (
        ("hybrid.access", "repro.hybrid.runtime:HybridRuntime", "access"),
        ("hybrid.adaptive_access", "repro.hybrid.runtime:AdaptiveHybridRuntime", "access"),
    ),
    "bench": tuple((f"bench.{name}", "repro.bench", name) for name in PAPER_EXPERIMENTS),
}

#: Layer names, longest first, so ``serve.replication.*`` beats ``serve.*``.
_LAYER_NAMES = sorted(LAYERS, key=len, reverse=True)


def layer_of(span_name: str) -> str:
    """The layer a span name belongs to (``?`` for unknown names)."""
    for layer in _LAYER_NAMES:
        if span_name.startswith(layer + "."):
            return layer
    return "?"


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class LayerTracer:
    """Installs span wrappers for one traced run and removes them all.

    Use as a context manager: global (module/class) wrappers go in on
    entry, per-instance ones through :meth:`instrument`, and every
    attribute touched is restored on exit, even if the run raised.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        #: Every object that received a wrapper (for the leak check).
        self.owners: List[object] = []
        self._undo: List[Callable[[], None]] = []
        self._seen: set = set()

    def _patch(self, owner, attr: str, span: str, fn: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        if attr in vars(owner):
            self._undo.append(lambda: setattr(owner, attr, original))
        else:  # inherited from the class: drop the instance override
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, self.recorder.wrap(span, fn if fn is not None else original))
        self.owners.append(owner)

    def __enter__(self) -> "LayerTracer":
        for owner, attr, span in global_boundaries():
            self._patch(owner, attr, span)
        return self

    def __exit__(self, *exc) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()
        self._seen.clear()

    def _patch_role(self, obj, role: str) -> bool:
        if id(obj) in self._seen:
            return False
        self._seen.add(id(obj))
        for rows in LAYERS.values():
            for span, owner, attr in rows:
                if owner == role and "<" not in span:
                    self._patch(obj, attr, span)
        return True

    def instrument(self, obj) -> None:
        """Wrap the boundaries of one object the benchmark built.

        Accepts a compiler, a TrackFM program or runtime, a sharded
        cluster or a serving simulation, and descends into the
        runtimes, pools, evacuators and backends they own.
        """
        from repro.compiler.pipeline import TrackFMCompiler
        from repro.serve.cluster import ShardedCluster
        from repro.serve.simulation import ServingSimulation
        from repro.sim.irrun import TrackFMProgram
        from repro.trackfm.runtime import TrackFMRuntime

        if isinstance(obj, TrackFMCompiler):
            if id(obj) not in self._seen:
                self._seen.add(id(obj))
                self._patch(obj, "compile", "compiler.compile", self._with_pass_events(obj))
        elif isinstance(obj, TrackFMProgram):
            if not self._patch_role(obj, "program"):
                return
            interp = obj.interp
            for name, fn in sorted(interp.intrinsics.items()):
                if name.startswith("tfm_"):
                    self._undo.append(
                        lambda name=name, fn=fn: interp.register_intrinsic(name, fn)
                    )
                    interp.register_intrinsic(
                        name, self.recorder.wrap(f"sim.irrun.{name}", fn)
                    )
            self.instrument(obj.runtime)
        elif isinstance(obj, TrackFMRuntime):
            if not self._patch_role(obj, "runtime"):
                return
            self._patch_role(obj.guards, "guards")
            self._patch_role(obj.pool, "pool")
            self._patch_role(obj.pool.evacuator, "evacuator")
            for backend in obj.remote_backends():
                self._patch_role(backend, "backend")
        elif isinstance(obj, ShardedCluster):
            if not self._patch_role(obj, "cluster"):
                return
            for _sid, shard in sorted(obj.shards.items()):
                self._patch_role(shard, "shard")
                self.instrument(shard.runtime)
        elif isinstance(obj, ServingSimulation):
            self._patch_role(obj, "simulation")
            self.instrument(obj.cluster)
        else:
            raise TypeError(f"no layer boundaries known for {type(obj).__name__}")

    def _with_pass_events(self, compiler) -> Callable:
        """``compiler.compile`` with a pass-event sink as its ``tracer``,
        so every pipeline pass becomes a child span of the compile span."""
        compile_ = compiler.compile
        sink = _PassEvents(self.recorder)

        def compile_with_pass_events(module, profile=None, tracer=None):
            return compile_(module, profile, tracer=sink)

        return compile_with_pass_events


class _PassEvents:
    """The duck-typed tracer ``TrackFMCompiler.compile`` accepts: it keeps
    only the pipeline's per-pass events, as spans."""

    enabled = True

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder

    def pass_event(self, name, ts_us, dur_us, inst_before, inst_after, stats=None) -> None:
        start = int(ts_us * 1000)
        self.recorder.add(
            f"compiler.pass.{name}", start, start + int(dur_us * 1000),
            self.recorder.current(),
        )

    def counter(self, *args, **kwargs) -> None:
        pass


def global_boundaries() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, span name)`` of every module/class boundary."""
    return [
        (_resolve(owner), attr, span)
        for rows in LAYERS.values()
        for span, owner, attr in rows
        if "." in owner
    ]


def _is_wrapper(value) -> bool:
    return getattr(value, "__perfbench_span__", None) is not None


def leftover_wrappers(objects=()) -> List[str]:
    """Every span wrapper still reachable from the global boundaries or
    the given objects (their own attributes and, for programs, their
    intrinsics).  Empty outside a traced run."""
    owners = [(owner, attr) for owner, attr, _span in global_boundaries()]
    found = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in owners
        if _is_wrapper(getattr(owner, attr, None))
    ]
    for obj in objects:
        found.extend(
            f"{type(obj).__name__}.{attr}"
            for attr, value in vars(obj).items()
            if _is_wrapper(value)
        )
        interp = getattr(obj, "interp", None)
        if interp is not None:
            found.extend(
                f"intrinsic {name}"
                for name, fn in interp.intrinsics.items()
                if _is_wrapper(fn)
            )
    return found
