"""The sharded cluster: one logical object pool across N far nodes.

Each shard is a complete far-memory stack — its own runtime (any kind
of :mod:`repro.runtimes`), its own :class:`~repro.net.backends.RemoteBackend` with a
private retry policy and circuit breaker, its own metrics bundle and
latency histogram.  Nothing mutable is shared between shards, which is
what makes a shard an *independent fault domain*: arming a dead fault
schedule on shard 3's link (``lose_shard``) trips only shard 3's
breaker, degrades only shard 3's requests, and leaves the other shards'
deterministic schedules untouched.

Keys are placed by the consistent-hash ring (``repro.serve.ring``);
each shard lazily assigns arriving keys to slots in its own heap, so a
shard only pays local-memory pressure for keys it actually owns.

**Data semantics.**  Each shard's key-value store models the far node's
durable contents.  Every key lives on ``R = min(replication, n_shards)``
distinct shards (:meth:`HashRing.place_n`, primary first), and there is
one request path for every R: writes are applied to the live replica
set with a monotonic per-key version tag (committed once
``write_quorum`` replicas ack), reads consult a ``read_quorum`` and
take the max version (healing stale quorum members inline — read
repair).  The default ``replication=1`` is the degenerate quorum,
W = Rq = 1 over a one-member set:

* **R = 1 (the default).**  Losing a shard loses its data: requests for
  its keys are served *degraded* (stale reads, non-durable writes —
  counted in ``degraded_accesses``) until ``rebalance()`` removes it
  from the ring; its keys have no surviving replica, so they re-seed on
  survivors from their initial values.  Keys on surviving shards never
  notice: the chaos suite pins that their values are bit-identical to
  a fault-free run.
* **R >= 2.**  A heartbeat failure detector suspects dead shards and
  **failover promotes surviving replicas losslessly**: zero keys
  re-seed as long as one replica survives, and a background
  anti-entropy sweep reconciles replicas that diverged during a
  partition.  ``python -m repro.bench serving --replication 2`` pins
  this posture.

R=1 runs stay bit-identical to the historical unreplicated baselines:
the replication factor decides only whether a detector runs, which
sparse replication counters appear, and which trace markers a
rebalance emits.  With one copy per key, an anti-entropy sweep has
nothing to heal and failover may only drop shards already lost.

Joining a shard moves keys *to* it; moved keys that are resident on a
surviving source are migrated through the source pool's evacuator
(dirty ones cross the wire).

**Tenant quotas.**  Per-tenant local-memory quotas bound how much of a
shard's residency one tenant can hold: when a tenant exceeds its
object budget, its least-recently-used object is expelled through the
evacuator.  Quotas apply to object-granular tiers (AIFM, TrackFM, the
hybrid's object side); the kernel-paging tier has no per-tenant view,
exactly as a real cgroup-per-machine deployment would.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import DataIntegrityError, RuntimeConfigError
from repro.machine.costs import AccessKind
from repro.net.backends import make_shard_backend
from repro.net.faults import FaultPlan
from repro.runtimes import RUNTIME_KINDS, TIERS, build_runtime
from repro.sim.metrics import Metrics, counters_as_dict, sparse
from repro.trace.histogram import StreamingHistogram
from repro.trace.tracer import NULL_TRACER
from repro.serve.replication import (
    FailureDetector,
    HeartbeatChannel,
    ReplicaTag,
    initial_tag,
    resolve_quorums,
)
from repro.serve.ring import HashRing, _splitmix64
from repro.units import BASE_PAGE, KB, align_up

#: Bytes per key slot (one 64-bit value per key).
SLOT_BYTES = 8

#: Stall charged per degraded access on a lost shard (same knob as the
#: trace drivers' degraded mode).
DEGRADED_STALL_CYCLES = 1_000.0

_MASK64 = (1 << 64) - 1

def default_value(key: int) -> int:
    """The value every key starts with (and re-seeds to after data loss)."""
    return _splitmix64((key << 8) ^ 0xD1CE) & 0x7FFFFFFF


def next_value(key: int, previous: int) -> int:
    """The value after one write — pure in ``(key, previous)``, so a
    key's value is a function of how many writes reached durable state."""
    return (previous * 1009 + key + 1) & 0x7FFFFFFF


@dataclass(frozen=True)
class ClusterConfig:
    """Sizing and policy for one sharded serving cluster."""

    n_shards: int
    #: Distinct keys the cluster serves.
    n_keys: int
    #: Which runtime model each shard runs (``RUNTIME_KINDS``).
    runtime: str = "aifm"
    #: AIFM object size within each shard's pool.
    object_size: int = 256
    #: Local memory per shard (the constraint quotas carve up).
    local_memory: int = 8 * KB
    #: Per-tenant residency budget in bytes per shard (None = no quota).
    tenant_quota_bytes: Optional[int] = None
    #: Virtual nodes per shard on the placement ring.
    vnodes: int = 128
    seed: int = 0
    #: Optional base fault plan; each shard replays it under its own
    #: derived seed (independent fault domains).
    fault_plan: Optional[FaultPlan] = None
    #: Replicas per key (1 = the historical unreplicated posture, whose
    #: reports stay bit-identical to older baselines).
    replication: int = 1
    #: Write/read quorum sizes; ``None`` = write-all / read-one.  Any
    #: explicit pair must satisfy ``W + R > replication``.
    write_quorum: Optional[int] = None
    read_quorum: Optional[int] = None
    #: Background anti-entropy sweep cadence (None = only on demand).
    anti_entropy_interval_cycles: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise RuntimeConfigError("n_shards must be >= 1")
        if self.n_keys < 1:
            raise RuntimeConfigError("n_keys must be >= 1")
        if self.runtime not in RUNTIME_KINDS:
            raise RuntimeConfigError(
                f"unknown runtime kind {self.runtime!r}; have {RUNTIME_KINDS}"
            )
        if self.tenant_quota_bytes is not None and self.tenant_quota_bytes < self.object_size:
            raise RuntimeConfigError("tenant quota smaller than one object")
        # Validates replication >= 1 and quorum intersection eagerly.
        resolve_quorums(
            self.effective_replication, self.write_quorum, self.read_quorum
        )
        if (
            self.anti_entropy_interval_cycles is not None
            and self.anti_entropy_interval_cycles <= 0
        ):
            raise RuntimeConfigError("anti_entropy_interval_cycles must be > 0")

    @property
    def effective_replication(self) -> int:
        """Replicas a key actually gets (bounded by the shard count; a
        nonpositive factor passes through for resolve_quorums to reject)."""
        return min(self.replication, self.n_shards)

    @property
    def quorums(self) -> Tuple[int, int]:
        """The resolved ``(write_quorum, read_quorum)`` pair."""
        return resolve_quorums(
            self.effective_replication, self.write_quorum, self.read_quorum
        )

    @property
    def shard_heap_bytes(self) -> int:
        """Each shard's heap must be able to host *every* key: after
        enough losses one survivor may own the whole keyspace."""
        return align_up(max(self.n_keys * SLOT_BYTES, self.object_size), self.object_size)

    @property
    def tenant_quota_objects(self) -> Optional[int]:
        if self.tenant_quota_bytes is None:
            return None
        return max(1, self.tenant_quota_bytes // self.object_size)


class Shard:
    """One far node: a runtime, its fault domain, and its key slots."""

    def __init__(self, shard_id: int, config: ClusterConfig) -> None:
        self.shard_id = shard_id
        self.config = config
        self.lost = False
        #: Data links dropped (reversible), control plane still up —
        #: the gray-failure regime anti-entropy exists for.
        self.partitioned = False
        #: key -> heap offset of its slot in this shard's heap.
        self.slots: Dict[int, int] = {}
        #: The far node's durable contents (key -> value).
        self.store: Dict[int, int] = {}
        #: Per-key replica metadata (monotonic write version + the
        #: integrity layer's object checksum), kept next to the value.
        self.tags: Dict[int, ReplicaTag] = {}
        #: The control-plane probe channel the failure detector polls.
        self.heartbeat = HeartbeatChannel(shard_id, config.fault_plan)
        self._saved_faults: Optional[list] = None
        #: End-to-end request latency (queue wait + service), cycles.
        self.latency = StreamingHistogram()
        self.requests = 0
        #: Per-tenant residency tracking for quota enforcement:
        #: obj -> owning tenant, and per tenant an LRU of its objects.
        self._obj_tenant: Dict[int, int] = {}
        self._tenant_lru: Dict[int, OrderedDict] = {}
        self._build_runtime()

    # -- the runtime --------------------------------------------------------

    def _build_runtime(self) -> None:
        config = self.config
        heap = config.shard_heap_bytes
        local, heap_size = config.local_memory, heap
        has_objects, has_pages = TIERS[config.runtime]
        if has_pages:
            # A page tier needs at least one page of heap, and one page
            # of local memory per tier, whatever the cluster sizing says.
            local = max(local, BASE_PAGE * (has_objects + has_pages))
            heap_size = max(heap, BASE_PAGE)
        #: The runtime and the access path over the shard's slot heap.
        self.arena = build_runtime(
            config.runtime, heap, local, heap_size, config.object_size,
            # Hybrid: the object tier holds the first half of the slots,
            # in whole objects.
            split=max(config.object_size, align_up(heap // 2, config.object_size)),
            object_backend=make_shard_backend("tcp", self.shard_id, config.fault_plan),
            page_backend=make_shard_backend("rdma", self.shard_id, config.fault_plan),
        )
        self.runtime = self.arena.runtime
        self.runtime.enable_degraded_mode(stall_cycles=DEGRADED_STALL_CYCLES)

    @property
    def pool(self):
        """The shard's object pool (None for the kernel-paging kind)."""
        return self.runtime.pool

    @property
    def metrics(self) -> Metrics:
        return self.runtime.metrics

    def set_tracer(self, tracer) -> None:
        self.runtime.set_tracer(tracer)

    # -- slots --------------------------------------------------------------

    def slot_of(self, key: int) -> int:
        """Heap offset of ``key``'s slot (assigned on first placement)."""
        offset = self.slots.get(key)
        if offset is None:
            offset = len(self.slots) * SLOT_BYTES
            if offset + SLOT_BYTES > self.config.shard_heap_bytes:
                raise RuntimeConfigError(
                    f"shard {self.shard_id} heap exhausted at key {key}"
                )
            self.slots[key] = offset
        return offset

    def drop_key(self, key: int) -> None:
        """Forget a key that moved away (its slot is not reused)."""
        self.slots.pop(key, None)
        self.store.pop(key, None)
        self.tags.pop(key, None)

    def version_of(self, key: int) -> int:
        """The write version this replica holds (0 = seeded default)."""
        tag = self.tags.get(key)
        return tag.version if tag is not None else 0

    def tag_of(self, key: int) -> ReplicaTag:
        tag = self.tags.get(key)
        return tag if tag is not None else initial_tag(key)

    def apply_write(self, key: int, value: int, tag: ReplicaTag) -> bool:
        """Apply a replicated write to durable state; False = unreachable."""
        if self.lost or self.partitioned:
            return False
        self.store[key] = value
        self.tags[key] = tag
        return True

    # -- the service path ---------------------------------------------------

    def service(self, key: int, kind: AccessKind, tenant: int) -> float:
        """One request against this far node; returns service cycles."""
        offset = self.slot_of(key)
        cycles = self.arena.access(offset, kind, SLOT_BYTES)
        cycles += self._enforce_quota(tenant, offset)
        return cycles

    # -- tenant quotas ------------------------------------------------------

    def _enforce_quota(self, tenant: int, offset: int) -> float:
        quota = self.config.tenant_quota_objects
        if quota is None or offset >= self.arena.object_bytes:
            # Page-tier slots have no per-tenant view (kernel paging).
            return 0.0
        obj_id = offset // self.config.object_size
        previous = self._obj_tenant.get(obj_id)
        if previous is not None and previous != tenant:
            self._tenant_lru.get(previous, OrderedDict()).pop(obj_id, None)
        self._obj_tenant[obj_id] = tenant
        lru = self._tenant_lru.setdefault(tenant, OrderedDict())
        lru.pop(obj_id, None)
        lru[obj_id] = None
        cycles = 0.0
        while len(lru) > quota:
            victim, _ = lru.popitem(last=False)
            self._obj_tenant.pop(victim, None)
            cycles += self.pool.expel(victim)
        return cycles

    def tenant_residency(self, tenant: int) -> int:
        """Objects currently attributed to ``tenant`` (quota view)."""
        return len(self._tenant_lru.get(tenant, ()))

    # -- fault domain -------------------------------------------------------

    def remote_backends(self) -> tuple:
        return self.runtime.remote_backends()

    def knock_out(self) -> None:
        """Arm a dead fault schedule on every link of this shard.

        The heartbeat channel goes dark too: suspicion is a consequence
        of the loss (missed probes), not an oracle flag the detector
        reads.
        """
        dead = FaultPlan(seed=self.shard_id ^ 0xDEAD, drop_rate=1.0)
        for backend in self.remote_backends():
            backend.link.faults = dead.schedule()
        self.heartbeat.down = True
        self.lost = True

    def partition(self) -> None:
        """Drop every data link, reversibly; heartbeats stay up.

        Models a gray failure: the node answers control-plane probes
        but its data path is unreachable, so the detector never fires,
        writes stop landing here, and the replica goes stale until
        :meth:`heal` + anti-entropy reconcile it.
        """
        if self.lost:
            raise RuntimeConfigError(f"shard {self.shard_id} is lost, not partitionable")
        if self.partitioned:
            raise RuntimeConfigError(f"shard {self.shard_id} already partitioned")
        backends = self.remote_backends()
        self._saved_faults = [backend.link.faults for backend in backends]
        cut = FaultPlan(seed=self.shard_id ^ 0x9A97, drop_rate=1.0)
        for backend in backends:
            backend.link.faults = cut.schedule()
        self.partitioned = True

    def heal(self) -> None:
        """Restore the data links a :meth:`partition` cut."""
        if not self.partitioned:
            raise RuntimeConfigError(f"shard {self.shard_id} is not partitioned")
        for backend, faults in zip(self.remote_backends(), self._saved_faults or ()):
            backend.link.faults = faults
        self._saved_faults = None
        self.partitioned = False

    def record_latency(self, latency_cycles: float) -> None:
        self.requests += 1
        self.latency.record(latency_cycles)


@dataclass
class RequestResult:
    """What one served request did."""

    shard_id: int
    value: int
    service_cycles: float
    degraded: bool
    #: Version tag the request committed (writes) or observed (reads).
    version: int = 0
    #: Replicas that durably applied a write (reads: replicas consulted).
    acks: int = 0


@dataclass
class ClusterStats:
    """Cluster-level event counters (shard metrics live on the shards)."""

    requests: int = 0
    degraded_requests: int = 0
    lost_shards: int = 0
    rebalances: int = 0
    #: Keys re-seeded from initial values after a loss: those whose
    #: replicas *all* died (at R=1, every key of a lost shard) — the
    #: chaos suite pins this at 0 for R>=2 single-shard knockouts.
    reseeded_keys: int = 0
    #: Keys migrated survivor → survivor through the evacuator (joins).
    migrated_keys: int = 0
    migration_cycles: float = 0.0
    #: Replication counters — serialized sparsely (only when nonzero)
    #: so unreplicated reports keep their historical exact form.
    #: Dead shards failed over (surviving replicas promoted).
    failovers: int = sparse()
    #: Replica copies materialized on new replica-set members at failover.
    promoted_keys: int = sparse()
    #: Stale replicas reconciled by anti-entropy sweeps.
    healed_stale_replicas: int = sparse()
    #: Gray partitions injected (data links cut, heartbeats alive).
    partitions: int = sparse()

    def as_dict(self) -> Dict[str, object]:
        return counters_as_dict(self)


class ShardedCluster:
    """N shards behind one consistent-hash ring."""

    def __init__(self, config: ClusterConfig, tracer=None) -> None:
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.shards: Dict[int, Shard] = {
            sid: Shard(sid, config) for sid in range(config.n_shards)
        }
        self.ring = HashRing(
            sorted(self.shards), vnodes=config.vnodes, seed=config.seed
        )
        #: Cached replica sets, primary first (kept exactly consistent
        #: with the ring) — the only placement cache.
        self._replica_sets: Dict[int, Tuple[int, ...]] = {}
        #: One shared tuple per distinct replica set.
        self._interned: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self.stats = ClusterStats()
        self._next_shard_id = config.n_shards
        self._write_quorum, self._read_quorum = config.quorums
        #: R >= 2 runs a failure detector and keeps the sparse
        #: replication counters; it picks no code path.
        self._replicated = config.effective_replication > 1
        self.detector: Optional[FailureDetector] = None
        if self._replicated:
            self.detector = FailureDetector()
            for sid, shard in sorted(self.shards.items()):
                self.detector.watch(sid, shard.heartbeat)
        if tracer is not None:
            self.set_tracer(tracer)

    def set_tracer(self, tracer) -> None:
        self.tracer = tracer
        for shard in self.shards.values():
            shard.set_tracer(tracer)

    # -- placement ----------------------------------------------------------

    def place(self, key: int) -> int:
        """The key's primary shard."""
        return self.replicas(key)[0]

    def replicas(self, key: int) -> Tuple[int, ...]:
        """The key's replica set (primary first), cached."""
        reps = self._replica_sets.get(key)
        if reps is None:
            reps = self._replica_sets[key] = self._place(key)
        return reps

    def _place(self, key: int) -> Tuple[int, ...]:
        """The key's replica set on the current ring (uncached)."""
        reps = self.ring.place_n(key, self.config.replication)
        return self._interned.setdefault(reps, reps)

    def live_shards(self) -> List[int]:
        return [sid for sid, shard in sorted(self.shards.items()) if not shard.lost]

    def _routable(self, replicas: Tuple[int, ...]) -> Tuple[int, ...]:
        """Replicas requests are sent to: the not-yet-suspected ones.

        Before the failure detector fires, a dead replica is still
        routed to (and pays degraded service) — suspicion, not an
        oracle, is what removes it from the request path.
        """
        detector = self.detector
        if detector is None or not detector.suspected:
            return replicas
        suspected = detector.suspected
        routable = tuple(sid for sid in replicas if sid not in suspected)
        return routable if routable else replicas

    def _freshest(self, key: int, shard_ids: Iterable[int]) -> Tuple[int, int, int]:
        """``(shard, value, version)`` of the max-version copy among
        ``shard_ids`` (ties broken by iteration order — replica order,
        so two runs always agree).  Compares versions only: a copy path
        reads the winner's tag itself, through :meth:`_verified_tag`."""
        shards = self.shards
        best_sid = -1
        best_version = -1
        for sid in shard_ids:
            tag = shards[sid].tags.get(key)
            version = 0 if tag is None else tag.version
            if version > best_version:
                best_sid = sid
                best_version = version
        value = shards[best_sid].store.get(key)
        if value is None:
            value = default_value(key)
        return best_sid, value, best_version

    def _verified_tag(self, key: int, shard_id: int, where: str) -> ReplicaTag:
        """The tag ``shard_id`` holds for ``key``, checked before a copy
        path (read repair, failover, anti-entropy, join) trusts it."""
        tag = self.shards[shard_id].tag_of(key)
        if not tag.verify(key):
            raise DataIntegrityError(
                f"replica tag for key {key} failed verification {where}",
                obj_id=key,
            )
        return tag

    # -- the request path ---------------------------------------------------

    def serve(self, key: int, tenant: int = 0, write: bool = False) -> RequestResult:
        """Serve one request over the key's replica set.

        Writes go to every routable replica with a bumped version tag;
        the write is *committed* once ``write_quorum`` replicas durably
        applied it.  Fewer acks (replicas lost or partitioned — at R=1,
        the only one) make the request degraded: acknowledged, not
        durable.  Reads consult the first ``read_quorum`` routable
        replicas, return the max-version value, and heal stale quorum
        members inline (read repair).

        Never raises for a lost shard: the shard's runtime runs in
        degraded mode, so the request completes with a stall and is
        counted in ``degraded_accesses``.  A read that hits host-local
        residency is *correct* even while the far node is down — not
        degraded.
        """
        if key < 0 or key >= self.config.n_keys:
            raise RuntimeConfigError(
                f"key {key} outside [0, {self.config.n_keys})"
            )
        reps = self.replicas(key)
        routable = self._routable(reps)
        coordinator = routable[0]
        shards = self.shards
        cycles = 0.0
        degraded = False
        if write:
            _src, prev_value, prev_version = self._freshest(key, reps)
            value = next_value(key, prev_value)
            version = prev_version + 1
            tag = ReplicaTag.at(key, version)
            acks = 0
            for sid in routable:
                shard = shards[sid]
                before = shard.metrics.degraded_accesses
                cycles += shard.service(key, AccessKind.WRITE, tenant)
                if shard.metrics.degraded_accesses > before or shard.lost:
                    degraded = True
                if shard.apply_write(key, value, tag):
                    acks += 1
                    if sid != coordinator:
                        shard.metrics.replica_writes += 1
            if acks < min(self._write_quorum, len(reps)):
                degraded = True
        else:
            targets = routable[: self._read_quorum]
            for sid in targets:
                shard = shards[sid]
                before = shard.metrics.degraded_accesses
                cycles += shard.service(key, AccessKind.READ, tenant)
                if shard.metrics.degraded_accesses > before:
                    degraded = True
            if self._replicated:
                shards[coordinator].metrics.quorum_reads += 1
            src, value, version = self._freshest(key, targets)
            acks = len(targets)
            # Read repair: stale quorum members adopt the winner's copy.
            for sid in targets:
                shard = shards[sid]
                if shard.version_of(key) < version and shard.apply_write(
                    key, value, self._verified_tag(key, src, "at read repair")
                ):
                    shard.metrics.read_repairs += 1
                    tracer = self.tracer
                    if tracer.enabled:
                        tracer.replica(
                            "read_repair", self._now(),
                            key=key, shard=sid, version=version,
                        )
        self.stats.requests += 1
        if degraded:
            self.stats.degraded_requests += 1
        return RequestResult(coordinator, value, cycles, degraded, version, acks)

    def read_value(self, key: int) -> int:
        """The durable value of ``key`` right now (no cost accounting):
        the freshest copy among its non-lost replicas, or among all of
        them when none survives (a lost R=1 owner until rebalance)."""
        reps = self.replicas(key)
        shards = self.shards
        reachable = [sid for sid in reps if not shards[sid].lost]
        return self._freshest(key, reachable or reps)[1]

    # -- chaos: loss, rebalance, join ---------------------------------------

    def lose_shard(self, shard_id: int) -> None:
        """The far node behind ``shard_id`` stops answering, mid-run."""
        shard = self.shards.get(shard_id)
        if shard is None or shard.lost:
            raise RuntimeConfigError(f"shard {shard_id} not live")
        if len(self.live_shards()) <= 1:
            raise RuntimeConfigError("cannot lose the last live shard")
        shard.knock_out()
        self.stats.lost_shards += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.serve("shard_lost", self._now(), shard=shard_id)

    def rebalance(self) -> int:
        """Remove lost shards from the ring and recover their keys
        through :meth:`failover`: keys with a surviving replica are
        promoted losslessly, keys without one — every key of a lost
        shard at R=1 — re-seed from their initial values.  Returns the
        number of keys whose replica set moved.
        """
        lost = [sid for sid, shard in self.shards.items() if shard.lost and sid in self.ring]
        if not lost:
            return 0
        moved = self.failover(lost)
        self.stats.rebalances += 1
        return moved

    def failover(self, shard_ids: Iterable[int]) -> int:
        """Remove dead shards from the ring and promote surviving replicas.

        For every key whose replica set intersected the dead set, the
        freshest *reachable* surviving copy (max version tag, verified
        against the integrity checksum) is copied onto the set's new
        members — lossless, so ``reseeded_keys`` stays untouched.  Only
        when every replica of a key died (always, at R=1) does the key
        re-seed from its initial value.  Keys whose replica sets did not
        contain a dead shard keep their sets verbatim (the
        :meth:`HashRing.place_n` leave law).  Returns the number of keys
        whose set changed.  At R=1 only lost shards may be failed over:
        a live one's keys have no other copy to promote.
        """
        dead = sorted({sid for sid in shard_ids if sid in self.ring})
        if not dead:
            return 0
        if len(self.ring) - len(dead) < 1:
            raise RuntimeConfigError("cannot fail over every ring member")
        if not self._replicated and not all(self.shards[sid].lost for sid in dead):
            raise RuntimeConfigError("at R=1, failing over a live shard discards its keys")
        for sid in dead:
            self.ring.remove_shard(sid)
            if self.detector is not None:
                # Routed around from now on, even if suspicion was a
                # false positive on a lossy control plane.
                self.detector.suspected.add(sid)
        dead_set = set(dead)
        shards = self.shards
        moved = 0
        promoted = 0
        reseeded = 0
        for key in sorted(self._replica_sets):
            old = self._replica_sets[key]
            if dead_set.isdisjoint(old):
                continue
            new = self._place(key)
            self._replica_sets[key] = new
            moved += 1
            survivors = [
                sid for sid in old
                if sid not in dead_set
                and not shards[sid].lost
                and not shards[sid].partitioned
            ]
            if survivors:
                src, value, _version = self._freshest(key, survivors)
                tag = self._verified_tag(key, src, "at failover")
                for sid in new:
                    if sid not in old and shards[sid].apply_write(key, value, tag):
                        promoted += 1
            else:
                # Every replica died: the write history is gone.
                reseeded += 1
            for sid in old:
                if sid in dead_set:
                    shards[sid].drop_key(key)
        self.stats.promoted_keys += promoted
        self.stats.reseeded_keys += reseeded
        tracer = self.tracer
        if self._replicated:
            self.stats.failovers += len(dead)
            live = self.live_shards()
            if live:
                shards[live[0]].metrics.failovers += len(dead)
            if tracer.enabled:
                tracer.replica(
                    "failover", self._now(),
                    removed=dead, moved=moved, promoted=promoted, reseeded=reseeded,
                )
        elif tracer.enabled:
            tracer.serve("rebalance", self._now(), removed=dead, reseeded=reseeded)
        return moved

    def anti_entropy(self) -> int:
        """One reconciliation sweep: heal every stale reachable replica.

        For each key, the freshest reachable copy (not lost, not
        partitioned) wins; lower-versioned reachable replicas adopt its
        value and tag, which is verified once per written key.
        Idempotent — a second sweep with no intervening writes heals
        nothing.  Returns the number of replicas healed.

        At R=1 there is no second copy to diverge, so the sweep is a
        no-op: it neither places keys nor emits a trace event.
        """
        if not self._replicated:
            return 0
        shards = self.shards
        healed = 0
        for key in range(self.config.n_keys):
            reachable = [
                sid for sid in self.replicas(key)
                if not shards[sid].lost and not shards[sid].partitioned
            ]
            if not reachable:
                continue
            src, value, version = self._freshest(key, reachable)
            if version == 0:
                continue  # nothing written: every replica is at the seed
            tag = self._verified_tag(key, src, "in anti-entropy")
            for sid in reachable:
                shard = shards[sid]
                if shard.version_of(key) < version and shard.apply_write(
                    key, value, tag
                ):
                    healed += 1
                    shard.metrics.stale_replicas_healed += 1
        if healed:
            self.stats.healed_stale_replicas += healed
        tracer = self.tracer
        if tracer.enabled:
            tracer.replica("anti_entropy", self._now(), healed=healed)
        return healed

    def partition_shard(self, shard_id: int) -> None:
        """Cut a shard's data links, reversibly; its heartbeats stay up.

        The gray-failure regime: the detector never fires, so the
        replica silently goes stale until :meth:`heal_shard` restores
        the links and :meth:`anti_entropy` reconciles it.
        """
        shard = self.shards.get(shard_id)
        if shard is None:
            raise RuntimeConfigError(f"shard {shard_id} does not exist")
        shard.partition()
        self.stats.partitions += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.replica("partition", self._now(), shard=shard_id)

    def heal_shard(self, shard_id: int) -> None:
        """Restore the data links :meth:`partition_shard` cut."""
        shard = self.shards.get(shard_id)
        if shard is None:
            raise RuntimeConfigError(f"shard {shard_id} does not exist")
        shard.heal()
        tracer = self.tracer
        if tracer.enabled:
            tracer.replica("heal", self._now(), shard=shard_id)

    def tick(self) -> List[int]:
        """One failure-detector round: probe every heartbeat channel.

        Newly suspected shards (``SUSPICION_THRESHOLD`` consecutive
        missed probes) are failed over immediately — unless that would
        empty the ring, in which case suspicion stands but the ring is
        left alone.  Returns the newly suspected shard ids.
        """
        if self.detector is None:
            return []
        newly = self.detector.tick()
        if newly:
            tracer = self.tracer
            if tracer.enabled:
                tracer.replica("suspect", self._now(), shards=list(newly))
            in_ring = [sid for sid in newly if sid in self.ring]
            if in_ring and len(self.ring) - len(in_ring) >= 1:
                self.failover(in_ring)
        return newly

    def join_shard(self) -> int:
        """Bring up a fresh shard and migrate its keys onto it.

        A replica set that adopts the joiner (consistent hashing: keys
        only move *to* it) copies the freshest surviving value and its
        verified tag onto it and evicts at most one old member (the
        ``place_n`` join law; at R=1, the old owner).  An evicted
        member's slot, if resident in a surviving pool, is expelled
        through that pool's evacuator (dirty ones pay a writeback).
        Sets that did not adopt the joiner are untouched.  Returns the
        new shard id.
        """
        sid = self._next_shard_id
        self._next_shard_id += 1
        shard = Shard(sid, self.config)
        if self.tracer is not NULL_TRACER:
            shard.set_tracer(self.tracer)
        self.shards[sid] = shard
        self.ring.add_shard(sid)
        if self.detector is not None:
            self.detector.watch(sid, shard.heartbeat)
        shards = self.shards
        migrated = 0
        cycles = 0.0
        for key in sorted(self._replica_sets):
            old = self._replica_sets[key]
            new = self._place(key)
            self._replica_sets[key] = new
            if set(new) == set(old):
                continue
            sources = [
                s for s in old if not shards[s].lost and not shards[s].partitioned
            ]
            src, value, _version = self._freshest(key, sources or old)
            tag = self._verified_tag(key, src, "at join")
            for member in new:
                if member not in old:
                    shards[member].apply_write(key, value, tag)
            for member in old:
                if member in new:
                    continue
                source = shards[member]
                pool = source.pool
                slot = source.slots.get(key)
                if pool is not None and slot is not None and not source.lost:
                    cycles += pool.expel(slot // self.config.object_size)
                source.drop_key(key)
            migrated += 1
        self.stats.migrated_keys += migrated
        self.stats.migration_cycles += cycles
        tracer = self.tracer
        if tracer.enabled:
            tracer.serve("join", self._now(), shard=sid, migrated=migrated)
        return sid

    # -- aggregation --------------------------------------------------------

    def merged_metrics(self) -> Metrics:
        """All shards' counters folded into one sparse bundle."""
        return Metrics.aggregate(
            shard.metrics for _sid, shard in sorted(self.shards.items())
        )

    def merged_latency(self) -> StreamingHistogram:
        """Global latency distribution: per-shard histograms merged."""
        merged = StreamingHistogram()
        for _sid, shard in sorted(self.shards.items()):
            merged.merge(shard.latency)
        return merged

    def values_checksum(self) -> int:
        """Digest of every key's durable value (ordered by key)."""
        acc = 0xCBF29CE484222325
        for key in range(self.config.n_keys):
            acc = ((acc ^ self.read_value(key)) * 0x100000001B3) & _MASK64
        return acc

    def _now(self) -> float:
        return max(
            (shard.metrics.cycles for shard in self.shards.values()), default=0.0
        )
