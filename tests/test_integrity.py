"""Unit tests for the data-integrity subsystem.

Covers the seeded checksum codec, the deterministic data-fault schedule
(payload corruption rolls on counters independent of message fates),
fetch-time verify → repair → quarantine on the backend, the write-ahead
journal protocol driven by the evacuator, the metadata sidecar tag, and
the sparse metrics contract (integrity counters only appear once
nonzero).  Crash injection and recovery live in
``test_recovery_chaos.py``; hypothesis properties in
``test_integrity_properties.py``.
"""

from __future__ import annotations

import pytest

from repro.aifm.evacuator import Evacuator
from repro.aifm.pool import ObjectPool, PoolConfig
from repro.errors import (
    DataIntegrityError,
    JournalError,
    RemoteBackendError,
    RuntimeConfigError,
)
from repro.fastswap.runtime import FastswapConfig, FastswapRuntime
from repro.integrity import (
    ChecksumCodec,
    EvacuationJournal,
    IntegrityConfig,
    RecordKind,
    attach_integrity,
    default_integrity_config,
    flip_bit,
    installed_integrity_config,
    parse_integrity_spec,
)
from repro.integrity.config import INTEGRITY_SPEC_KEYS
from repro.net.backends import make_tcp_backend
from repro.net.faults import CORRUPTION_KINDS, FaultPlan
from repro.sim.metrics import Metrics
from repro.units import KB

#: The sparse counters the integrity layer owns.
INTEGRITY_COUNTERS = (
    "corruptions_detected",
    "corruptions_repaired",
    "quarantined_objects",
    "journal_replays",
)


def _armed_backend(plan: FaultPlan, config: IntegrityConfig):
    """A TCP backend with ``plan`` data faults and a wired checker."""
    backend = make_tcp_backend()
    backend.link.faults = plan.schedule()
    checker = attach_integrity(backend, config)
    metrics = Metrics()
    backend.metrics = metrics
    checker.metrics = metrics
    return backend, checker, metrics


class TestChecksumCodec:
    def test_crc_roundtrip_and_seed_keying(self):
        a, b = ChecksumCodec(seed=1), ChecksumCodec(seed=2)
        payload = b"far memory payload"
        assert a.verify(payload, a.checksum(payload))
        assert not b.verify(payload, a.checksum(payload))

    def test_single_bit_flip_detected(self):
        codec = ChecksumCodec(seed=7)
        payload = bytes(range(64))
        check = codec.checksum(payload)
        for bit in (0, 1, 17, 511):
            assert not codec.verify(flip_bit(payload, bit), check)

    def test_flip_bit_is_involutive(self):
        payload = b"\x00\xff\x42"
        assert flip_bit(flip_bit(payload, 9), 9) == payload
        with pytest.raises(ValueError):
            flip_bit(b"", 0)

    def test_object_checksum_distinguishes_versions(self):
        codec = ChecksumCodec(seed=0)
        tags = {codec.object_checksum(obj, v) for obj in range(8) for v in range(8)}
        assert len(tags) == 64  # no collisions in the test universe

    def test_object_checksum_deterministic(self):
        assert ChecksumCodec(3).object_checksum(5, 2) == ChecksumCodec(
            3
        ).object_checksum(5, 2)


class TestIntegritySpecParsing:
    def test_off_and_empty(self):
        assert parse_integrity_spec("off") is None
        assert parse_integrity_spec("") is None

    def test_on_is_defaults(self):
        assert parse_integrity_spec("on") == IntegrityConfig()

    def test_full_spec(self):
        config = parse_integrity_spec("seed=3,refetch=5,verify=40,crash=12:farnode")
        assert config == IntegrityConfig(
            seed=3,
            max_refetches=5,
            verify_cycles=40.0,
            crash_at_record=12,
            crash_kind="farnode",
        )

    def test_crash_without_kind_defaults_to_evacuator(self):
        config = parse_integrity_spec("crash=4")
        assert config.crash_at_record == 4
        assert config.crash_kind == "evacuator"

    def test_unknown_key_enumerates_valid_keys(self):
        with pytest.raises(RuntimeConfigError) as err:
            parse_integrity_spec("bogus=1")
        message = str(err.value)
        for key in INTEGRITY_SPEC_KEYS:
            assert key in message

    def test_bad_values(self):
        for spec in (
            "seed=x", "refetch=-1", "crash=0", "crash=3:bogus", "seed",
            "verify=nan", "verify=inf",
        ):
            with pytest.raises(RuntimeConfigError):
                parse_integrity_spec(spec)


class TestDataFaultSchedule:
    def test_payload_rolls_are_deterministic(self):
        plan = FaultPlan(seed=9, bitflip_rate=0.3, torn_write_rate=0.2)
        a, b = plan.schedule(), plan.schedule()
        assert [a.roll_fetch_payload() for _ in range(200)] == [
            b.roll_fetch_payload() for _ in range(200)
        ]
        assert [a.roll_evict_payload() for _ in range(200)] == [
            b.roll_evict_payload() for _ in range(200)
        ]
        assert a.stats.bitflips == b.stats.bitflips > 0
        assert a.stats.torn_writes == b.stats.torn_writes > 0

    def test_arming_data_faults_preserves_message_fates(self):
        # Corruption rolls live on separate counters: the loss/latency
        # schedule must be bit-identical with and without them.
        plain = FaultPlan(seed=4, drop_rate=0.1, jitter_cycles=300.0)
        armed = FaultPlan(
            seed=4,
            drop_rate=0.1,
            jitter_cycles=300.0,
            bitflip_rate=0.5,
            lost_writeback_rate=0.5,
        )
        assert [plain.decide(i) for i in range(500)] == [
            armed.decide(i) for i in range(500)
        ]

    def test_data_faults_make_plan_non_noop(self):
        assert FaultPlan().is_noop
        for kind in (
            "bitflip_rate",
            "stale_read_rate",
            "torn_write_rate",
            "lost_writeback_rate",
        ):
            plan = FaultPlan(**{kind: 0.01})
            assert plan.has_data_faults
            assert not plan.is_noop

    def test_rate_validation(self):
        with pytest.raises(RuntimeConfigError):
            FaultPlan(bitflip_rate=1.5)
        with pytest.raises(RuntimeConfigError):
            FaultPlan(torn_write_rate=-0.1)

    def test_corruption_stats_rollup(self):
        sched = FaultPlan(seed=2, bitflip_rate=1.0, torn_write_rate=1.0).schedule()
        sched.roll_fetch_payload()
        sched.roll_evict_payload()
        assert sched.stats.corruptions == 2

    def test_corruption_kinds_constant(self):
        assert set(CORRUPTION_KINDS) == {
            "bitflip",
            "torn_write",
            "lost_writeback",
            "stale_read",
        }


class TestBackendVerification:
    def test_clean_fetch_charges_verify_cycles_only(self):
        backend, _checker, metrics = _armed_backend(
            FaultPlan(seed=1), IntegrityConfig(verify_cycles=25.0)
        )
        plain = make_tcp_backend()
        assert backend.fetch(256, obj_id=0) == plain.fetch(256) + 25.0
        assert metrics.corruptions_detected == 0

    def test_fetch_without_obj_id_skips_verification(self):
        backend, _checker, _metrics = _armed_backend(
            FaultPlan(seed=1, bitflip_rate=1.0), IntegrityConfig()
        )
        assert backend.fetch(256) == make_tcp_backend().fetch(256)

    def test_corruption_repaired_by_refetch(self):
        # Rate 0.4 at this seed corrupts some fetches but never enough
        # in a row to exhaust the budget: everything must repair.
        backend, checker, metrics = _armed_backend(
            FaultPlan(seed=3, bitflip_rate=0.4), IntegrityConfig(max_refetches=4)
        )
        for obj in range(40):
            backend.fetch(256, obj_id=obj)
        assert metrics.corruptions_detected > 0
        assert metrics.corruptions_repaired == metrics.corruptions_detected
        assert metrics.quarantined_objects == 0
        assert not checker.quarantined

    def test_repair_costs_more_than_clean(self):
        clean_backend, _c, _m = _armed_backend(
            FaultPlan(seed=11), IntegrityConfig(max_refetches=4)
        )
        dirty_backend, _c2, metrics = _armed_backend(
            FaultPlan(seed=11, bitflip_rate=1.0), IntegrityConfig(max_refetches=4)
        )
        clean = clean_backend.fetch(256, obj_id=0)
        with pytest.raises(DataIntegrityError):
            dirty_backend.fetch(256, obj_id=0)
        # The failed repair attempts were still paid for on the wire.
        assert metrics.remote_fetches == 4
        assert metrics.bytes_fetched == 4 * 256
        assert clean > 0

    def test_quarantine_raises_and_sticks(self):
        backend, checker, metrics = _armed_backend(
            FaultPlan(seed=1, bitflip_rate=1.0), IntegrityConfig(max_refetches=2)
        )
        with pytest.raises(DataIntegrityError) as err:
            backend.fetch(256, obj_id=5)
        assert err.value.obj_id == 5
        assert isinstance(err.value, RemoteBackendError)
        assert checker.quarantined == {5}
        assert metrics.quarantined_objects == 1
        # Every later touch raises immediately, with no new detection.
        detected = metrics.corruptions_detected
        with pytest.raises(DataIntegrityError) as err2:
            backend.fetch(256, obj_id=5)
        assert err2.value.kind == "quarantined"
        assert metrics.corruptions_detected == detected

    def test_detected_equals_repaired_plus_quarantined(self):
        backend, _checker, metrics = _armed_backend(
            FaultPlan(seed=3, bitflip_rate=0.6, stale_read_rate=0.2),
            IntegrityConfig(max_refetches=1),
        )
        for obj in range(60):
            try:
                backend.fetch(256, obj_id=obj)
            except DataIntegrityError:
                pass
        assert metrics.corruptions_detected > 0
        assert metrics.quarantined_objects > 0
        assert (
            metrics.corruptions_detected
            == metrics.corruptions_repaired + metrics.quarantined_objects
        )

    def test_zero_refetch_budget_quarantines_immediately(self):
        backend, _checker, metrics = _armed_backend(
            FaultPlan(seed=1, bitflip_rate=1.0), IntegrityConfig(max_refetches=0)
        )
        with pytest.raises(DataIntegrityError):
            backend.fetch(256, obj_id=0)
        assert metrics.remote_fetches == 0  # no repair traffic at all


class TestJournalProtocol:
    def _evacuator(self, plan: FaultPlan, config: IntegrityConfig):
        backend, checker, metrics = _armed_backend(plan, config)
        evac = Evacuator(backend=backend, object_size=256)
        return evac, checker, metrics

    def test_committed_writeback_journals_three_records(self):
        evac, checker, metrics = self._evacuator(FaultPlan(seed=1), IntegrityConfig())
        evac.process([(7, True)], metrics)
        kinds = [r.kind for r in checker.journal.records]
        assert kinds == [RecordKind.INTENT, RecordKind.PAYLOAD, RecordKind.COMMIT]
        assert checker.versions[7] == 1
        assert checker.journal.records[0].obj_id == 7

    def test_clean_eviction_journals_nothing(self):
        evac, checker, metrics = self._evacuator(FaultPlan(seed=1), IntegrityConfig())
        evac.process([(7, False)], metrics)
        assert len(checker.journal) == 0

    def test_deferred_writeback_journals_abort(self):
        evac, checker, metrics = self._evacuator(
            FaultPlan(seed=0, drop_rate=1.0), IntegrityConfig()
        )
        from repro.net.faults import RetryPolicy

        evac.backend.retry_policy = RetryPolicy(max_attempts=2)
        evac.process([(3, True)], metrics)
        kinds = [r.kind for r in checker.journal.records]
        assert kinds == [RecordKind.INTENT, RecordKind.PAYLOAD, RecordKind.ABORT]
        assert 3 not in checker.versions  # never committed
        assert metrics.deferred_writebacks == 1

    def test_reattempted_writeback_gets_fresh_version(self):
        # An aborted attempt must not shadow a later commit in the fold.
        evac, checker, metrics = self._evacuator(
            FaultPlan(seed=0, drop_rate=1.0), IntegrityConfig()
        )
        from repro.net.faults import RetryPolicy

        evac.backend.retry_policy = RetryPolicy(max_attempts=2)
        evac.process([(3, True)], metrics)
        evac.backend.link.faults = None  # heal
        evac.drain_deferred(metrics)
        state = checker.journal.state()
        assert state[(3, 1)] is RecordKind.ABORT
        assert state[(3, 2)] is RecordKind.COMMIT
        assert checker.versions[3] == 2

    def test_torn_writeback_marks_remote_damage(self):
        evac, checker, metrics = self._evacuator(
            FaultPlan(seed=1, torn_write_rate=1.0), IntegrityConfig()
        )
        evac.process([(9, True)], metrics)
        assert checker.remote_damage == {9: "torn_write"}

    def test_damaged_copy_repaired_from_journal_on_fetch(self):
        # Tear exactly one writeback (the first evict-payload roll),
        # then fetch the object back: repair must re-drive the journal
        # payload, clear the damage, and count a replay.
        evac, checker, metrics = self._evacuator(
            FaultPlan(seed=1, torn_write_rate=0.999), IntegrityConfig(max_refetches=4)
        )
        evac.process([(9, True)], metrics)
        assert checker.remote_damage
        # Heal the writeback path so the re-drive lands intact.
        evac.backend.link.faults = FaultPlan(seed=1).schedule()
        evac.backend.fetch(256, obj_id=9)
        assert not checker.remote_damage
        assert metrics.journal_replays == 1
        assert metrics.corruptions_repaired == 1

    def test_finish_without_begin_raises(self):
        _evac, checker, _metrics = self._evacuator(FaultPlan(seed=1), IntegrityConfig())
        with pytest.raises(JournalError):
            checker.finish_writeback(1)

    def test_journal_append_validation(self):
        journal = EvacuationJournal()
        with pytest.raises(JournalError):
            journal.append(RecordKind.INTENT, -1, 1)
        with pytest.raises(JournalError):
            journal.append(RecordKind.INTENT, 0, 0)


class TestMetadataSidecar:
    def _pool(self, config: IntegrityConfig = None):
        backend = make_tcp_backend()
        if config is not None:
            attach_integrity(backend, config)
        return ObjectPool(
            PoolConfig(object_size=256, local_memory=1 * KB, heap_size=16 * KB),
            backend=backend,
        )

    def test_meta_carries_check_when_armed(self):
        pool = self._pool(IntegrityConfig(seed=5))
        meta = pool.meta(3)
        assert meta.check == pool.integrity.expected_check(3)
        assert meta.check is not None

    def test_meta_check_none_when_off(self):
        assert self._pool().meta(3).check is None

    def test_check_survives_word_transitions(self):
        pool = self._pool(IntegrityConfig(seed=5))
        pool.ensure_local(3)
        meta = pool.meta(3)
        assert meta.with_dirty().check == meta.check
        assert meta.with_hot().check == meta.check
        assert meta.with_evacuating().check == meta.check

    def test_check_advances_with_writeback_version(self):
        pool = self._pool(IntegrityConfig(seed=5))
        before = pool.meta(0).check
        pool.integrity.begin_writeback(0)
        pool.integrity.finish_writeback(0)
        assert pool.meta(0).check != before

    def test_pool_wires_checker_metrics(self):
        pool = self._pool(IntegrityConfig())
        assert pool.integrity.metrics is pool.metrics

    def test_fastswap_page_table_entry(self):
        rt = FastswapRuntime(FastswapConfig(local_memory=8 * KB, heap_size=64 * KB))
        assert rt.page_table_entry(0) == (False, False, None)
        rt.enable_integrity(IntegrityConfig(seed=2))
        off = rt.allocate(4096)
        rt.access(off)
        resident, dirty, check = rt.page_table_entry(rt.page_of(off))
        assert resident and not dirty
        assert check == rt.integrity.expected_check(rt.page_of(off))
        from repro.errors import PointerError

        with pytest.raises(PointerError):
            rt.page_table_entry(10**9)


class TestSparseCounters:
    def test_fresh_metrics_emit_no_integrity_keys(self):
        emitted = Metrics().as_dict()
        for key in INTEGRITY_COUNTERS:
            assert key not in emitted

    def test_nonzero_counters_round_trip(self):
        m = Metrics()
        m.corruptions_detected = 3
        m.corruptions_repaired = 2
        m.quarantined_objects = 1
        m.journal_replays = 4
        wire = m.as_dict()
        for key in INTEGRITY_COUNTERS:
            assert key in wire
        back = Metrics.from_dict(wire)
        assert back.as_dict() == wire
        merged = Metrics()
        merged.merge(m)
        assert merged.corruptions_detected == 3
        m.reset()
        assert m.journal_replays == 0


class TestDefaultConfigHook:
    def test_installed_config_arms_factory_backends(self):
        assert default_integrity_config() is None
        with installed_integrity_config(IntegrityConfig(seed=8)):
            backend = make_tcp_backend()
            assert backend.integrity is not None
            assert backend.integrity.config.seed == 8
        assert default_integrity_config() is None
        assert make_tcp_backend().integrity is None

    def test_disabled_config_is_not_attached(self):
        with installed_integrity_config(IntegrityConfig(enabled=False)):
            assert make_tcp_backend().integrity is None
