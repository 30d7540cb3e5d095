"""The runtime-kind table: every kind is built one way and answers one surface.

Each kind in :data:`repro.runtimes.RUNTIME_KINDS` is built through
:func:`~repro.runtimes.build_runtime`, and every far node it talks to is
then knocked out, the way the serving layer loses a shard.  With degraded
mode on, every kind must keep serving (at a stall) instead of raising, its
tracer must reach every backend, and ``pool`` must be the object tier's
pool (``None`` for the page-only kind).
"""

from __future__ import annotations

import pytest

from repro.aifm.pool import ObjectPool
from repro.errors import RuntimeConfigError
from repro.machine.costs import AccessKind
from repro.net.backends import make_shard_backend
from repro.net.faults import FaultPlan
from repro.runtimes import RUNTIME_KINDS, TIERS, build_runtime
from repro.trace.tracer import Tracer
from repro.units import KB

#: Twice the local budget, so the sweep must fetch and evict.
ARENA = 16 * KB
LOCAL = 8 * KB
HEAP = 64 * KB
OBJECT_SIZE = 256


def _build(kind: str):
    object_backend = make_shard_backend("tcp", 0)
    page_backend = make_shard_backend("rdma", 0)
    built = build_runtime(
        kind, ARENA, LOCAL, HEAP, OBJECT_SIZE,
        object_backend=object_backend, page_backend=page_backend,
    )
    return built, object_backend, page_backend


@pytest.mark.parametrize("kind", RUNTIME_KINDS)
def test_kind_degrades_under_total_loss(kind):
    (runtime, access, _), object_backend, page_backend = _build(kind)
    has_objects, has_pages = TIERS[kind]
    # The table's tiers are the far nodes the runtime talks to.
    expected = [b for b, on in ((object_backend, has_objects), (page_backend, has_pages)) if on]
    assert list(runtime.remote_backends()) == expected

    tracer = Tracer()
    runtime.set_tracer(tracer)
    assert all(b.tracer is tracer for b in runtime.remote_backends())

    if has_objects:
        assert isinstance(runtime.pool, ObjectPool)
        assert runtime.pool.backend is object_backend
    else:
        assert runtime.pool is None

    dead = FaultPlan(seed=1, drop_rate=1.0)
    for backend in runtime.remote_backends():
        backend.link.faults = dead.schedule()
    runtime.enable_degraded_mode(stall_cycles=1_000.0)
    for _ in range(2):
        for offset in range(0, ARENA, 64):
            access(offset, AccessKind.WRITE, 8)
    assert runtime.metrics.degraded_accesses > 0
    assert tracer.category_counts().get("degrade", 0) > 0


def test_unknown_kind_is_a_config_error():
    with pytest.raises(RuntimeConfigError):
        build_runtime("paging", ARENA, LOCAL, HEAP, OBJECT_SIZE)
