"""The runtime-kind table: every far-memory runtime, built one way.

TrackFM is evaluated by running one workload under each far-memory
runtime.  This module is the one place that knows the kinds, which
memory tiers each runs, and how each is built over an arena: the
serving cluster's shards, the trace replays and the ablation engine's
pattern cells all come from :func:`build_runtime`.  A new kind is one
:data:`TIERS` entry plus its branch in :func:`build_runtime`.

Every kind answers the same surface — ``set_tracer``,
``enable_integrity``, ``recover``, ``enable_degraded_mode``,
``remote_backends``, ``metrics`` and ``pool`` — so callers never ask
which kind they hold.  Degraded mode serves an access locally (at a
stall) when a far node is unavailable; per kind it covers:

* ``aifm``, ``trackfm``: the object pool;
* ``fastswap``: the swap target (``pool`` is ``None``);
* ``hybrid``: the page tier only — the object tier's degrade step is
  the page-tier fallback (§5), so object-side failures land there;
* ``adaptive``: both tiers.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.aifm.pool import PoolConfig
from repro.aifm.runtime import AIFMRuntime
from repro.fastswap.runtime import FastswapConfig, FastswapRuntime
from repro.hybrid.runtime import AdaptiveHybridRuntime, HybridRuntime, Placement
from repro.errors import RuntimeConfigError
from repro.machine.costs import AccessKind
from repro.net.backends import RemoteBackend
from repro.trackfm.runtime import TrackFMRuntime

#: kind -> (has an object tier, has a page tier).
TIERS: Dict[str, Tuple[bool, bool]] = {
    "aifm": (True, False),
    "trackfm": (True, False),
    "fastswap": (False, True),
    "hybrid": (True, True),
    "adaptive": (True, True),
}

#: Every runtime kind, in table order.
RUNTIME_KINDS: Tuple[str, ...] = tuple(TIERS)

#: Smallest page-tier allocation of a hybrid arena: one 8-byte element.
_MIN_PAGE_BYTES = 8


class RuntimeArena(NamedTuple):
    """A built runtime and the one access path over its arena."""

    runtime: object
    #: ``access(offset, kind, size) -> cycles`` at an arena offset.
    access: Callable[[int, AccessKind, int], float]
    #: Arena offsets below this live on the object tier (0 for fastswap).
    object_bytes: int


def build_runtime(
    kind: str,
    arena: int,
    local_memory: int,
    heap_size: int,
    object_size: int,
    split: Optional[int] = None,
    object_backend: Optional[RemoteBackend] = None,
    page_backend: Optional[RemoteBackend] = None,
    use_clock: bool = True,
    prefetch: bool = True,
    adaptive: bool = True,
) -> RuntimeArena:
    """Build a ``kind`` runtime and allocate an ``arena``-byte region in it.

    ``split`` is the hybrid's object/page boundary inside the arena
    (default: half, 8-byte aligned).  Each kind takes the backend of
    the tiers it runs.  The ablation postures: ``use_clock`` picks the
    single-tier kinds' reclaim policy (the composite kinds keep CLOCK),
    ``prefetch`` switches AIFM's stride prefetcher on each access, and
    ``adaptive=False`` freezes the adaptive selector.
    """
    if kind == "aifm":
        runtime = AIFMRuntime(
            PoolConfig(object_size, local_memory, heap_size, use_clock),
            backend=object_backend,
        )
        base = runtime.allocate(arena).offset

        def access(offset: int, op: AccessKind, size: int) -> float:
            return runtime.access(base + offset, op, size, prefetch=prefetch)

        return RuntimeArena(runtime, access, arena)
    if kind == "hybrid":
        runtime = HybridRuntime(
            local_memory, heap_size, object_size,
            object_backend=object_backend, page_backend=page_backend,
        )
        if split is None:
            split = (arena // 2 + 7) & ~7
        objects = runtime.allocate(split, Placement.OBJECTS)
        pages = runtime.allocate(max(arena - split, _MIN_PAGE_BYTES), Placement.PAGES)

        def access(offset: int, op: AccessKind, size: int) -> float:
            if offset < split:
                return runtime.access(objects, offset, op, size)
            return runtime.access(pages, offset - split, op, size)

        return RuntimeArena(runtime, access, split)
    if kind == "trackfm":
        runtime = TrackFMRuntime(
            PoolConfig(object_size, local_memory, heap_size, use_clock),
            backend=object_backend,
        )
        base, object_bytes = runtime.tfm_malloc(arena), arena
    elif kind == "adaptive":
        runtime = AdaptiveHybridRuntime(
            local_memory, heap_size, object_size, adaptive=adaptive,
            object_backend=object_backend, page_backend=page_backend,
        )
        base, object_bytes = runtime.tfm_malloc(arena), arena
    elif kind == "fastswap":
        runtime = FastswapRuntime(
            FastswapConfig(local_memory, heap_size, use_clock=use_clock),
            backend=page_backend,
        )
        base, object_bytes = runtime.allocate(arena), 0
    else:
        raise RuntimeConfigError(f"unknown runtime kind {kind!r}; have {RUNTIME_KINDS}")

    def access(offset: int, op: AccessKind, size: int) -> float:
        return runtime.access(base + offset, op, size)

    return RuntimeArena(runtime, access, object_bytes)

