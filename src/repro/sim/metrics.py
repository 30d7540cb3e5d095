"""Metrics accumulated by the far-memory runtime simulators.

Everything the paper's figures plot comes from these counters: simulated
cycles (execution time), guard counts by kind (Fig. 14b, 16b), page
faults (Fig. 14b), and bytes moved over the network (Fig. 13b, 16c —
I/O amplification).

A counter is declared once, as a :class:`Metrics` field; ``merge``,
``reset``, ``snapshot`` and the ``as_dict``/``from_dict`` wire form all
derive from the field table.
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields, replace
from typing import Dict, Iterable

from repro.machine.costs import GuardKind


def sparse() -> Field:
    """A zero-initialized counter field :func:`counters_as_dict` emits
    only when nonzero.

    Fault-free runs never move these counters, so leaving them out keeps
    the exact serialization older baselines and goldens pinned.
    """
    return field(default=0, metadata={"sparse": True})


def _keys(f: Field):
    """The enum a per-key counter field is keyed by (None for scalars)."""
    return f.metadata.get("keys")


def counters_as_dict(bundle) -> Dict[str, object]:
    """A counter dataclass in canonical JSON-safe form, in field order.

    Per-key counters are keyed by their enum value strings and sorted,
    so equal bundles serialize identically; :func:`sparse` fields appear
    only when nonzero.
    """
    out: Dict[str, object] = {}
    for f in fields(bundle):
        value = getattr(bundle, f.name)
        if _keys(f) is not None:
            out[f.name] = {
                key.value: n
                for key, n in sorted(value.items(), key=lambda kv: kv[0].value)
            }
        elif value or not f.metadata.get("sparse"):
            out[f.name] = value
    return out


def _with_unrolled_merge(cls):
    """Install ``cls.merge``, one line per field, generated at import.

    Like the ``__init__`` :mod:`dataclasses` builds: a per-name
    ``getattr``/``setattr`` loop made every merge (``HybridRuntime.metrics``
    runs three per read) about 2.5x slower.
    """
    body = []
    for f in fields(cls):
        if _keys(f) is not None:
            # A key ``other`` holds at zero is not materialized here: the
            # merged bundle must serialize like a fresh one (the exact
            # ``BENCH_*.json`` fingerprints aggregate per-shard metrics).
            body += [
                f"    mine = self.{f.name}",
                f"    for key, n in other.{f.name}.items():",
                "        if n:",
                "            mine[key] = mine.get(key, 0) + n",
            ]
        else:
            body.append(f"    self.{f.name} += other.{f.name}")
    namespace: Dict[str, object] = {}
    exec("def merge(self, other):\n" + "\n".join(body), namespace)
    merge = namespace["merge"]
    merge.__module__ = cls.__module__
    merge.__qualname__ = f"{cls.__qualname__}.merge"
    merge.__doc__ = """Fold ``other`` into this bundle, preserving sparseness."""
    cls.merge = merge
    return cls


@_with_unrolled_merge
@dataclass
class Metrics:
    """Counter bundle; one per runtime instance.

    Declaration order is the serialized key order.
    """

    #: Total simulated cycles charged.
    cycles: float = 0.0
    #: Memory accesses observed (loads + stores).
    accesses: int = 0
    #: Guard executions by kind (TrackFM runtimes).
    guards: Dict[GuardKind, int] = field(
        default_factory=dict, metadata={"keys": GuardKind}
    )
    #: Page faults (Fastswap): minor = swap-cache hit, major = remote.
    minor_faults: int = 0
    major_faults: int = 0
    #: Objects/pages fetched from the remote node.
    remote_fetches: int = 0
    #: Bytes pulled from the remote node.
    bytes_fetched: int = 0
    #: Bytes written back (evacuations / page-outs).
    bytes_evacuated: int = 0
    #: Object evacuations / page reclaims performed.
    evictions: int = 0
    #: Prefetch requests issued and how many were useful.
    prefetches_issued: int = 0
    prefetches_useful: int = 0
    #: Resilience counters (fault injection, ``repro.net.faults``).
    #: Messages lost on the wire (drops + pause windows).
    drops: int = sparse()
    #: Loss-detection timeouts charged by the retry policy.
    timeouts: int = sparse()
    #: Retries granted by the retry policy.
    retries: int = sparse()
    #: Accesses served locally because the remote tier was unavailable.
    degraded_accesses: int = sparse()
    #: Dirty writebacks deferred because the remote tier was unavailable.
    deferred_writebacks: int = sparse()
    #: Integrity counters (checksum verification, ``repro.integrity``).
    #: Payloads that failed checksum verification on fetch.
    corruptions_detected: int = sparse()
    #: Corruptions repaired by bounded re-fetch / journal re-drive.
    corruptions_repaired: int = sparse()
    #: Objects quarantined after the repair budget was exhausted.
    quarantined_objects: int = sparse()
    #: Writebacks re-driven from the evacuation journal (repair + recovery).
    journal_replays: int = sparse()
    #: Adaptive-hybrid counters (``repro.hybrid`` path selector).
    #: Regions whose selected tier flipped at a rebalance epoch.
    tier_switches: int = sparse()
    #: Objects physically moved between tiers by those flips.
    objects_migrated: int = sparse()
    #: Replication counters (``repro.serve`` quorum paths).
    #: Secondary-replica write applications (beyond the coordinator's).
    replica_writes: int = sparse()
    #: Reads that consulted a read quorum of replicas.
    quorum_reads: int = sparse()
    #: Stale replicas healed inline by a divergent quorum read.
    read_repairs: int = sparse()
    #: Dead shards failed over (surviving replicas promoted).
    failovers: int = sparse()
    #: Stale replicas reconciled by the background anti-entropy sweep.
    stale_replicas_healed: int = sparse()

    def count_guard(self, kind: GuardKind, n: int = 1) -> None:
        self.guards[kind] = self.guards.get(kind, 0) + n

    def guard_count(self, kind: GuardKind) -> int:
        return self.guards.get(kind, 0)

    @property
    def total_guards(self) -> int:
        """Guards that executed guard code (excludes unguarded accesses)."""
        return sum(n for k, n in self.guards.items() if k is not GuardKind.NONE)

    @property
    def slow_path_guards(self) -> int:
        return self.guard_count(GuardKind.SLOW) + self.guard_count(GuardKind.LOCALITY)

    @property
    def total_faults(self) -> int:
        return self.minor_faults + self.major_faults

    @property
    def total_bytes_transferred(self) -> int:
        return self.bytes_fetched + self.bytes_evacuated

    def amplification(self, working_set_bytes: int) -> float:
        """Total data moved over the network / working-set size (Fig 13/16)."""
        if working_set_bytes <= 0:
            return 0.0
        return self.total_bytes_transferred / working_set_bytes

    def reset(self) -> None:
        """Zero every counter (per-key dicts are cleared in place)."""
        for f in fields(self):
            if _keys(f) is not None:
                getattr(self, f.name).clear()
            else:
                setattr(self, f.name, f.default)

    def snapshot(self) -> "Metrics":
        """A copy of the current counters."""
        return replace(
            self,
            **{
                f.name: dict(getattr(self, f.name))
                for f in fields(self) if _keys(f) is not None
            },
        )

    def as_dict(self) -> Dict[str, object]:
        """The canonical JSON-safe form, shared by benchmarks and traces.

        Guard counts are keyed by :class:`GuardKind` value strings and
        sorted.  Resilience, integrity, adaptive and replication counters
        are emitted *only when nonzero*: fault-free runs keep the exact
        serialization older baselines and goldens pinned.
        """
        return counters_as_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Metrics":
        """Inverse of :meth:`as_dict` (lossless round-trip)."""
        m = cls()
        for f in fields(cls):
            keys = _keys(f)
            if keys is None:
                setattr(m, f.name, type(f.default)(data.get(f.name, f.default)))
                continue
            counts = getattr(m, f.name)
            for key, n in dict(data.get(f.name, {})).items():
                if int(n):
                    counts[keys(key)] = int(n)
        return m

    @classmethod
    def aggregate(cls, bundles: "Iterable[Metrics]") -> "Metrics":
        """Fold many bundles (e.g. one per shard) into a fresh one."""
        total = cls()
        for bundle in bundles:
            total.merge(bundle)
        return total
