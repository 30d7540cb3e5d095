"""The AIFM runtime facade: the library-based baseline.

This is far memory as AIFM ships it: the *programmer* places data in
remote data structures, every dereference goes through a smart pointer
(cheap, no guard), iterators know the data structure's layout and drive
the stride prefetcher, and object sizes are chosen per data structure by
the developer.  TrackFM reuses everything below the smart-pointer layer.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.aifm.allocator import Allocation, RegionAllocator
from repro.aifm.pool import ObjectPool, PoolConfig
from repro.aifm.prefetcher import StridePrefetcher
from repro.aifm.scope import DerefScope
from repro.errors import PointerError
from repro.integrity import (
    IntegrityChecker,
    IntegrityConfig,
    RecoveryManager,
    RecoveryReport,
    attach_integrity,
)
from repro.machine.costs import AccessKind
from repro.net.backends import RemoteBackend
from repro.sim.metrics import Metrics
from repro.trace.tracer import NULL_TRACER
from repro.units import ceil_div

#: Cycles of AIFM's smart-pointer indirection on a hot (local) deref.
#: §4.1: "AIFM does incur overhead for smart pointer indirection" — it
#: is cheaper than a TrackFM fast-path guard (21 cycles) because there
#: is no custody check or state-table load; the unique pointer embeds
#: the state.
AIFM_DEREF_OVERHEAD = 9.0


class PooledRuntime:
    """What every object-pool runtime shares: the pool and its allocator,
    and the tracer, integrity, recovery, degraded-mode and backend
    plumbing around them.  Subclasses add their access paths."""

    def __init__(
        self, config: PoolConfig, backend: Optional[RemoteBackend] = None
    ) -> None:
        self.config = config
        self.pool = ObjectPool(config, backend=backend)
        self.allocator = RegionAllocator(config.heap_size, config.object_size)
        self.object_size = config.object_size
        self.tracer = NULL_TRACER

    def set_tracer(self, tracer) -> None:
        """Attach a tracer to the pool and its backend."""
        self.tracer = tracer
        self.pool.tracer = tracer
        self.pool.backend.set_tracer(tracer)

    def enable_integrity(
        self, config: Optional[IntegrityConfig] = None
    ) -> IntegrityChecker:
        """Checksum-verify every remote fetch (detect → repair → quarantine).

        Attaches an :class:`~repro.integrity.IntegrityChecker` to the
        pool's backend, wired into this runtime's metrics and tracer;
        dirty writebacks start following the write-ahead evacuation
        journal.  Returns the checker.
        """
        checker = attach_integrity(self.pool.backend, config)
        checker.metrics = self.pool.metrics
        checker.tracer = self.tracer
        return checker

    def recover(self) -> RecoveryReport:
        """Replay/roll back the evacuation journal and rebuild residency.

        The pool's metadata array is rebuilt *in place*, so anything
        aliasing it (TrackFM's state table) observes the recovered words.
        """
        return RecoveryManager.for_pool(self.pool).recover()

    def enable_degraded_mode(
        self,
        stall_cycles: float = 0.0,
        hook=None,
    ) -> None:
        """Serve accesses locally when far memory is unavailable.

        Without this, an open circuit breaker surfaces
        :class:`~repro.errors.FarMemoryUnavailableError` to the program.
        With it, the pool's slow path falls back to the local tier: each
        degraded access charges ``stall_cycles`` (or whatever
        ``hook(obj_id)`` returns) and is counted in
        ``metrics.degraded_accesses``.
        """
        if hook is not None:
            self.pool.degraded_handler = hook
        else:
            self.pool.degraded_handler = lambda _obj_id: stall_cycles

    def remote_backends(self) -> Tuple[RemoteBackend, ...]:
        """Every far node this runtime talks to (one: the pool's).

        The uniform hook the sharded serving layer uses to reach a
        runtime's fault domains — arming a shard-loss schedule, reading
        breaker state — without knowing which runtime kind it holds.
        """
        return (self.pool.backend,)

    @property
    def metrics(self) -> Metrics:
        return self.pool.metrics

    def _free_region(self, offset: int) -> None:
        """Free the allocation at heap ``offset``; objects no live
        allocation still shares leave the pool."""
        freed = self.allocator.free(offset)
        first, last = freed.object_range(self.object_size)
        for obj_id in range(first, last):
            if self.allocator.allocation_at(obj_id * self.object_size) is None:
                self.pool.free_object(obj_id)


class AIFMRuntime(PooledRuntime):
    """Object-granular far memory with library (not compiler) knowledge."""

    def __init__(
        self,
        config: PoolConfig,
        backend: Optional[RemoteBackend] = None,
        prefetch_depth: int = 8,
    ) -> None:
        super().__init__(config, backend)
        self.prefetcher = StridePrefetcher(depth=prefetch_depth) if prefetch_depth else None

    # -- allocation -----------------------------------------------------

    def allocate(self, size: int) -> Allocation:
        """Carve a remotable allocation out of the pool's heap."""
        return self.allocator.allocate(size)

    def free(self, alloc: Allocation) -> None:
        self._free_region(alloc.offset)

    def scope(self) -> DerefScope:
        """A DerefScope over this runtime's pool (Listing 1 style)."""
        return DerefScope(self.pool)

    # -- the deref path ----------------------------------------------------

    def access(
        self,
        offset: int,
        kind: AccessKind = AccessKind.READ,
        size: int = 8,
        stream: int = 0,
        scope: Optional[DerefScope] = None,
        prefetch: bool = True,
        depth: int = 1,
    ) -> float:
        """Dereference ``size`` bytes at heap ``offset``; returns cycles.

        Objects spanned by the access are localized; the stride
        prefetcher observes the leading object.  Smart-pointer overhead
        plus the local access cost are always charged.
        """
        if size <= 0:
            raise PointerError("access size must be positive")
        costs = self.config.costs
        cycles = AIFM_DEREF_OVERHEAD + costs.local_access
        write = kind is AccessKind.WRITE
        first = self.pool.object_of_offset(offset)
        last = self.pool.object_of_offset(offset + size - 1)
        for obj_id in range(first, last + 1):
            _hit, move = self.pool.ensure_local(obj_id, write=write, depth=depth)
            cycles += move
            if scope is not None:
                scope.pin(obj_id)
        if self.prefetcher is not None and prefetch:
            for target in self.prefetcher.observe(first, stream=stream):
                if 0 <= target < self.pool.config.num_objects:
                    cycles += self.pool.prefetch(target)
        self.metrics.accesses += 1
        self.metrics.cycles += cycles
        return cycles

    # -- closed-form bulk scan ---------------------------------------------

    def sequential_scan(
        self,
        offset: int,
        n_elems: int,
        elem_size: int,
        kind: AccessKind = AccessKind.READ,
        resident_fraction: float = 0.0,
    ) -> float:
        """Closed-form cost of a sequential scan (library iterator).

        AIFM's iterators localize object-by-object and prefetch ahead,
        so per element: smart-pointer overhead + local access, plus per
        object: a pipelined fetch for the non-resident fraction.
        ``resident_fraction`` is the probability an object is already
        local (0 for a cold scan larger than local memory).
        """
        costs = self.config.costs
        total_bytes = n_elems * elem_size
        n_objects = max(1, ceil_div(total_bytes, self.object_size))
        per_elem = AIFM_DEREF_OVERHEAD + costs.local_access
        cycles = n_elems * per_elem
        misses = int(round(n_objects * (1.0 - resident_fraction)))
        if misses:
            wire = self.pool.backend.link.wire_cycles(self.object_size)
            cycles += misses * wire
            integrity = self.pool.backend.integrity
            if integrity is not None:
                # Closed-form scans verify each fetched object's
                # checksum (no corruption rolls: the closed form models
                # the healthy-payload cost envelope).
                cycles += misses * integrity.config.verify_cycles
            self.metrics.remote_fetches += misses
            self.metrics.bytes_fetched += misses * self.object_size
            self.pool.backend.link.stats.bytes_fetched += misses * self.object_size
            self.metrics.prefetches_issued += misses
            self.metrics.prefetches_useful += misses
            tracer = self.pool.tracer
            if tracer.enabled:
                tracer.fetch(
                    misses * self.object_size, wire, self.metrics.cycles,
                    n=misses, name="scan_fetch",
                )
                tracer.prefetch(
                    misses * self.object_size, self.metrics.cycles,
                    useful=True, n=misses, name="scan_prefetch",
                )
            if kind is AccessKind.WRITE:
                evict = self.pool.backend.link.wire_cycles(self.object_size)
                cycles += misses * evict * self.pool.evacuator.sync_fraction
                self.metrics.bytes_evacuated += misses * self.object_size
                self.metrics.evictions += misses
                if tracer.enabled:
                    tracer.evict(
                        misses * self.object_size, self.metrics.cycles,
                        n=misses, dirty=misses, name="scan_evict",
                    )
        self.metrics.accesses += n_elems
        self.metrics.cycles += cycles
        return cycles
