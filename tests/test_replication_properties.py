"""Property-based tests for the replication layer.

Five groups of guarantees, all stated as hypothesis properties:

* **replica placement** — ``HashRing.place_n`` yields distinct shards,
  is a pure function of the shard set, has size ``min(R, N)``, and its
  first element is the key's primary (``place``);
* **movement laws** — exact (not statistical) leave/join laws for
  replica *sets*: a leave only touches sets containing the leaver (drop
  the leaver, gain at most one survivor), a join only adds the joiner;
* **quorum math** — ``resolve_quorums`` accepts exactly the pairs with
  ``1 <= W, Rq <= R`` and ``W + Rq > R``, and on a live cluster every
  committed write is visible to every subsequent quorum read;
* **repair idempotence** — anti-entropy converges: a sweep that healed
  everything reachable leaves nothing for the next sweep, and a repeat
  read after a read-repair finds no remaining staleness;
* **the cluster as a state machine** — ``ShardedCluster`` at R=1, 2, 3
  against a dict reference under any interleaving of requests, losses,
  partitions, heals, rebalances, detector ticks, joins and sweeps.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import RuntimeConfigError
from repro.net.faults import FaultPlan
from repro.serve.cluster import ClusterConfig, ShardedCluster, default_value, next_value
from repro.serve.replication import (
    FailureDetector,
    HeartbeatChannel,
    ReplicaTag,
    initial_tag,
    resolve_quorums,
)
from repro.serve.ring import HashRing, moved_replica_keys

SHARD_IDS = st.integers(min_value=0, max_value=0xFFFF)
SHARD_SETS = st.sets(SHARD_IDS, min_size=1, max_size=32)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
KEYS = st.lists(
    st.integers(min_value=0, max_value=2**31 - 1),
    min_size=1, max_size=100, unique=True,
)
REPLICATION = st.integers(min_value=1, max_value=5)


# -- replica placement ------------------------------------------------------


@given(shards=SHARD_SETS, seed=SEEDS, keys=KEYS, n=REPLICATION)
@settings(max_examples=60, deadline=None)
def test_replica_sets_distinct_sized_and_primary_first(shards, seed, keys, n):
    ring = HashRing(sorted(shards), seed=seed)
    for key in keys:
        reps = ring.place_n(key, n)
        assert len(reps) == len(set(reps)) == min(n, len(shards))
        assert all(sid in shards for sid in reps)
        assert reps[0] == ring.place(key)
    # n=1 degenerates to the historical single-owner placement.
    assert all(ring.place_n(k, 1) == (ring.place(k),) for k in keys)


@given(shards=SHARD_SETS, seed=SEEDS, keys=KEYS, n=REPLICATION)
@settings(max_examples=60, deadline=None)
def test_replica_placement_pure_function_of_shard_set(shards, seed, keys, n):
    ordered = HashRing(sorted(shards), seed=seed)
    reversed_ = HashRing(sorted(shards, reverse=True), seed=seed)
    assert ordered.placement(keys, n=n) == reversed_.placement(keys, n=n)


# -- movement laws ----------------------------------------------------------


@given(shards=st.sets(SHARD_IDS, min_size=2, max_size=32), seed=SEEDS,
       keys=KEYS, n=REPLICATION, data=st.data())
@settings(max_examples=60, deadline=None)
def test_leave_law_for_replica_sets(shards, seed, keys, n, data):
    ring = HashRing(sorted(shards), seed=seed)
    before = {k: ring.place_n(k, n) for k in keys}
    leaver = data.draw(st.sampled_from(sorted(shards)))
    ring.remove_shard(leaver)
    after = {k: ring.place_n(k, n) for k in keys}
    moved = {key for key, _, _ in moved_replica_keys(before, after)}
    for key in keys:
        old, new = set(before[key]), set(after[key])
        if leaver not in old:
            assert new == old, f"key {key} moved but {leaver} was not a replica"
            assert key not in moved
        else:
            # Loses exactly the leaver; gains at most one survivor.
            assert leaver not in new
            assert old - {leaver} <= new
            assert len(new - old) <= 1


@given(shards=SHARD_SETS, seed=SEEDS, keys=KEYS, n=REPLICATION,
       joiner=SHARD_IDS)
@settings(max_examples=60, deadline=None)
def test_join_law_for_replica_sets(shards, seed, keys, n, joiner):
    if joiner in shards:
        shards = shards - {joiner}
        if not shards:
            return
    ring = HashRing(sorted(shards), seed=seed)
    before = {k: ring.place_n(k, n) for k in keys}
    ring.add_shard(joiner)
    after = {k: ring.place_n(k, n) for k in keys}
    for key in keys:
        old, new = set(before[key]), set(after[key])
        assert new <= old | {joiner}
        if joiner not in new:
            assert new == old, f"key {key} reshuffled without adopting {joiner}"


@given(shards=SHARD_SETS, seed=SEEDS, keys=KEYS, n=REPLICATION,
       joiner=SHARD_IDS)
@settings(max_examples=40, deadline=None)
def test_moved_replica_keys_ignores_reordering(shards, seed, keys, n, joiner):
    ring = HashRing(sorted(shards), seed=seed)
    before = {k: ring.place_n(k, n) for k in keys}
    # Reordering a tuple is not movement: membership is what costs a copy.
    reordered = {k: tuple(reversed(v)) for k, v in before.items()}
    assert moved_replica_keys(before, reordered) == []
    if joiner not in shards:
        ring.add_shard(joiner)
        after = {k: ring.place_n(k, n) for k in keys}
        moved = {key for key, _, _ in moved_replica_keys(before, after)}
        assert moved == {
            k for k in keys if set(after[k]) != set(before[k])
        }


# -- quorum math ------------------------------------------------------------


@given(r=st.integers(min_value=1, max_value=8),
       w=st.integers(min_value=-1, max_value=10),
       rq=st.integers(min_value=-1, max_value=10))
@settings(max_examples=200, deadline=None)
def test_resolve_quorums_accepts_exactly_intersecting_pairs(r, w, rq):
    valid = 1 <= w <= r and 1 <= rq <= r and w + rq > r
    if valid:
        assert resolve_quorums(r, w, rq) == (w, rq)
    else:
        with pytest.raises(RuntimeConfigError):
            resolve_quorums(r, w, rq)


@given(r=st.integers(min_value=1, max_value=8))
@settings(max_examples=20, deadline=None)
def test_resolve_quorums_defaults_write_all_read_one(r):
    w, rq = resolve_quorums(r)
    assert (w, rq) == (r, 1)
    assert w + rq > r


def test_resolve_quorums_rejects_nonpositive_replication():
    with pytest.raises(RuntimeConfigError):
        resolve_quorums(0)
    with pytest.raises(RuntimeConfigError):
        resolve_quorums(-1)


@st.composite
def quorum_pairs(draw):
    """(replication, write_quorum, read_quorum) with W + Rq > R."""
    r = draw(st.integers(min_value=2, max_value=3))
    w = draw(st.integers(min_value=1, max_value=r))
    rq = draw(st.integers(min_value=r - w + 1, max_value=r))
    return r, w, rq


@given(pair=quorum_pairs(), seed=SEEDS,
       writes=st.lists(st.integers(min_value=0, max_value=31),
                       min_size=1, max_size=24))
@settings(max_examples=25, deadline=None)
def test_committed_writes_visible_to_quorum_reads(pair, seed, writes):
    r, w, rq = pair
    cluster = ShardedCluster(ClusterConfig(
        n_shards=3, n_keys=32, seed=seed,
        replication=r, write_quorum=w, read_quorum=rq,
    ))
    expected = {key: default_value(key) for key in range(32)}
    for key in writes:
        result = cluster.serve(key, write=True)
        assert result.acks >= w
        expected[key] = next_value(key, expected[key])
        assert result.value == expected[key]
    # Every read quorum intersects every committed write quorum, so the
    # freshest version — and with it the deterministic value chain — is
    # always visible, regardless of which Rq replicas answer.
    for key in range(32):
        read = cluster.serve(key, write=False)
        assert read.value == expected[key]
        assert cluster.read_value(key) == expected[key]


# -- repair idempotence -----------------------------------------------------


@given(seed=SEEDS,
       writes=st.lists(st.integers(min_value=0, max_value=31),
                       min_size=1, max_size=16),
       victim=st.integers(min_value=0, max_value=2))
@settings(max_examples=15, deadline=None)
def test_anti_entropy_is_idempotent_after_partition(seed, writes, victim):
    cluster = ShardedCluster(ClusterConfig(
        n_shards=3, n_keys=32, seed=seed,
        replication=2, write_quorum=1, read_quorum=2,
    ))
    cluster.partition_shard(victim)
    for key in writes:
        cluster.serve(key, write=True)
    cluster.heal_shard(victim)
    cluster.anti_entropy()
    # Converged: a second sweep finds nothing stale, and the healed
    # replicas now agree with the authoritative value chain.
    assert cluster.anti_entropy() == 0
    for key in set(writes):
        assert cluster.serve(key, write=False).value == cluster.read_value(key)


@given(seed=SEEDS, key=st.integers(min_value=0, max_value=31))
@settings(max_examples=15, deadline=None)
def test_read_repair_is_idempotent(seed, key):
    cluster = ShardedCluster(ClusterConfig(
        n_shards=3, n_keys=32, seed=seed,
        replication=2, write_quorum=1, read_quorum=2,
    ))
    victim = cluster.replicas(key)[1]
    cluster.partition_shard(victim)
    cluster.serve(key, write=True)
    cluster.heal_shard(victim)
    cluster.serve(key, write=False)  # quorum read repairs the stale copy
    repairs = cluster.merged_metrics().read_repairs
    cluster.serve(key, write=False)  # nothing left to repair
    assert cluster.merged_metrics().read_repairs == repairs
    assert cluster.anti_entropy() == 0


# -- tags and heartbeats ----------------------------------------------------


@given(key=st.integers(min_value=0, max_value=2**31 - 1),
       version=st.integers(min_value=0, max_value=2**20))
@settings(max_examples=100, deadline=None)
def test_replica_tag_verify_roundtrip(key, version):
    tag = ReplicaTag.at(key, version)
    assert tag.verify(key)
    assert not ReplicaTag(version=version + 1, checksum=tag.checksum).verify(key)
    assert initial_tag(key) == ReplicaTag.at(key, 0)


@given(shard_id=st.integers(min_value=0, max_value=0xFFFF), seed=SEEDS,
       drop=st.floats(min_value=0.0, max_value=0.9),
       probes=st.integers(min_value=1, max_value=64))
@settings(max_examples=50, deadline=None)
def test_heartbeat_channels_deterministic_and_independent(
    shard_id, seed, drop, probes
):
    plan = FaultPlan(seed=seed, drop_rate=drop)
    a = HeartbeatChannel(shard_id, plan)
    b = HeartbeatChannel(shard_id, plan)
    assert [a.probe() for _ in range(probes)] == [b.probe() for _ in range(probes)]
    # Probe fates never consume the data plan's counter.
    assert plan.decide(0) == FaultPlan(seed=seed, drop_rate=drop).decide(0)


@given(threshold=st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_detector_suspects_after_exactly_threshold_misses(threshold):
    detector = FailureDetector(threshold=threshold)
    channel = HeartbeatChannel(0, None)
    detector.watch(0, channel)
    channel.down = True
    for tick in range(1, threshold + 1):
        newly = detector.tick()
        assert newly == ([0] if tick == threshold else [])
    assert detector.is_suspected(0)
    assert detector.tick() == []  # suspicion is sticky, reported once


# -- stateful model: the cluster against a dict reference -------------------

#: ``REPRO_SERVE_CHAOS_SEEDS`` widens the model run the same way it
#: widens the seeded chaos fuzz (the nightly fuzz workflow sets 25).
MODEL_EXAMPLES = 8 * int(os.environ.get("REPRO_SERVE_CHAOS_SEEDS", "3"))
MODEL_SHARDS = 4
MODEL_KEYS = 12
MODEL_MAX_JOINS = 2


class ClusterModel(RuleBasedStateMachine):
    """``ShardedCluster`` at R in {1, 2, 3} against a dict reference.

    Every stored copy carries a version, and its value must be the
    key's write chain at that version (``default_value``, then
    ``next_value`` per write).  At R=1 the reference is exact: a write
    is durable iff the owner is reachable, and a rebalance re-seeds
    exactly the lost shards' keys.  At R >= 2 the reference holds each
    key's last *committed* version (acked by the whole replica set,
    the default write-all quorum), and the rules keep the failures in
    flight within the set's tolerance: lost shards still on the ring
    plus shards partitioned since the last anti-entropy sweep stay at
    most ``min(R, ring size) - 1``.
    """

    @initialize(r=st.sampled_from([1, 2, 3]), seed=SEEDS)
    def setup(self, r, seed):
        self.r = r
        self.cluster = ShardedCluster(ClusterConfig(
            n_shards=MODEL_SHARDS, n_keys=MODEL_KEYS, seed=seed, replication=r,
        ))
        #: R=1: each key's durable value.  R>=2: last committed version.
        self.durable = {k: default_value(k) for k in range(MODEL_KEYS)}
        self.committed = dict.fromkeys(range(MODEL_KEYS), 0)
        #: Shards partitioned since the last sweep that found them healed.
        self.dirty: set = set()
        self.joins = 0
        self.chains = {k: [default_value(k)] for k in range(MODEL_KEYS)}
        self.versions = self._versions()

    # -- helpers -------------------------------------------------------------

    def _chain(self, key, version):
        chain = self.chains[key]
        while len(chain) <= version:
            chain.append(next_value(key, chain[-1]))
        return chain[version]

    def _versions(self):
        return {
            (sid, key): tag.version
            for sid, shard in self.cluster.shards.items()
            for key, tag in shard.tags.items()
        }

    def _in_flight(self, extra=0):
        """Failures in flight after ``extra`` more, and their budget."""
        cluster = self.cluster
        lost = {sid for sid in cluster.ring.shard_ids if cluster.shards[sid].lost}
        failures = len(lost | self.dirty) + extra
        return failures, min(self.r, len(cluster.ring)) - 1

    def _live(self):
        return [sid for sid, s in sorted(self.cluster.shards.items())
                if not s.lost and not s.partitioned]

    # -- rules ---------------------------------------------------------------

    @rule(key=st.integers(0, MODEL_KEYS - 1))
    def write(self, key):
        reps = self.cluster.replicas(key)
        result = self.cluster.serve(key, write=True)
        assert result.value == self._chain(key, result.version)
        assert result.version > self.committed[key]
        if self.r == 1:
            owner = self.cluster.shards[reps[0]]
            durable = not owner.lost and not owner.partitioned
            assert (result.acks == 1) == durable
            # A write that did not land is degraded; one that did may
            # still be (a breaker that has not closed since a heal).
            assert durable or result.degraded
            if durable:
                self.durable[key] = result.value
        elif result.acks >= len(reps):
            self.committed[key] = result.version

    @rule(key=st.integers(0, MODEL_KEYS - 1))
    def read(self, key):
        result = self.cluster.serve(key)
        assert result.value == self._chain(key, result.version)
        if self.r == 1:
            assert result.value == self.durable[key]

    @rule(data=st.data())
    def lose(self, data):
        live = [sid for sid, s in sorted(self.cluster.shards.items()) if not s.lost]
        candidates = [sid for sid in live if not self.cluster.shards[sid].partitioned]
        if len(live) < 2 or not candidates:
            return
        if self.r > 1:
            failures, budget = self._in_flight(extra=1)
            if failures > budget:
                return
        self.cluster.lose_shard(data.draw(st.sampled_from(candidates)))

    @rule(data=st.data())
    def partition(self, data):
        candidates = [sid for sid in self._live() if sid not in self.dirty]
        if not candidates:
            return
        if self.r > 1:
            failures, budget = self._in_flight(extra=1)
            if failures > budget:
                return
        sid = data.draw(st.sampled_from(candidates))
        self.cluster.partition_shard(sid)
        self.dirty.add(sid)

    @rule(data=st.data())
    def heal(self, data):
        parted = [sid for sid, s in sorted(self.cluster.shards.items()) if s.partitioned]
        if parted:
            self.cluster.heal_shard(data.draw(st.sampled_from(parted)))

    @rule()
    def rebalance(self):
        cluster = self.cluster
        if self.r == 1:
            # Exactly the lost shards' keys re-seed; every other key keeps
            # its durable value.
            lost = {sid for sid, s in cluster.shards.items() if s.lost}
            for key in range(MODEL_KEYS):
                if cluster.replicas(key)[0] in lost:
                    self.durable[key] = default_value(key)
        cluster.rebalance()

    @rule()
    def tick(self):
        # R>=2: a shard lost for SUSPICION_THRESHOLD ticks fails over.
        # R=1 runs no detector, so nothing happens.
        self.cluster.tick()

    @precondition(lambda self: self.joins < MODEL_MAX_JOINS)
    @rule()
    def join(self):
        self.joins += 1
        self.cluster.join_shard()

    @rule()
    def anti_entropy(self):
        cluster = self.cluster
        cluster.anti_entropy()
        self.dirty = {sid for sid in self.dirty if cluster.shards[sid].partitioned}
        # Converged: every reachable replica holds the freshest reachable
        # copy, and a second sweep has nothing left to heal.
        for key in range(MODEL_KEYS):
            reachable = [
                sid for sid in cluster.replicas(key)
                if not cluster.shards[sid].lost and not cluster.shards[sid].partitioned
            ]
            assert len({cluster.shards[sid].version_of(key) for sid in reachable}) <= 1
        assert cluster.anti_entropy() == 0

    # -- invariants ----------------------------------------------------------

    @invariant()
    def copies_follow_the_write_chain(self):
        for shard in self.cluster.shards.values():
            for key, value in shard.store.items():
                tag = shard.tags[key]
                assert tag.verify(key)
                assert value == self._chain(key, tag.version)

    @invariant()
    def replica_versions_are_monotone(self):
        versions = self._versions()
        for pair, version in versions.items():
            assert version >= self.versions.get(pair, 0)
        self.versions = versions

    @invariant()
    def no_committed_write_is_lost(self):
        cluster = self.cluster
        for key in range(MODEL_KEYS):
            value = cluster.read_value(key)
            if self.r == 1:
                assert value == self.durable[key]
                continue
            reps = cluster.replicas(key)
            holders = [sid for sid in reps if not cluster.shards[sid].lost] or reps
            freshest = max(cluster.shards[sid].version_of(key) for sid in holders)
            assert freshest >= self.committed[key]
            assert value == self._chain(key, freshest)
        if self.r > 1:
            assert cluster.stats.reseeded_keys == 0


TestClusterModel = ClusterModel.TestCase
TestClusterModel.settings = settings(
    max_examples=MODEL_EXAMPLES, stateful_step_count=30, deadline=None,
)
