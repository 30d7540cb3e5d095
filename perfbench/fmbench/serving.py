"""``serve_r1`` and ``serve_r3_chaos``: open-loop Zipf traffic through
``ServingSimulation`` against four TrackFM shards.

``serve_r1`` is the historical unreplicated request path, fault-free,
with per-tenant residency quotas on.  ``serve_r3_chaos`` replays the
same traffic shape at R=3 (write-all/read-one) with the heartbeat
failure detector and periodic anti-entropy, while a script partitions
then heals one shard and knocks out then rebalances another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from fmbench import oracles
from fmbench.core import Evaluation

CLIENTS = 1000
REQUESTS_PER_CLIENT = 50
N_KEYS = 16384
SHARDS = 4
#: Per-shard local memory: a quarter of the shard's 32 KB of key slots.
LOCAL_MEMORY = 8 * 1024
TENANT_QUOTA = 2 * 1024
#: Mean gap between one client's requests.  The offered load keeps every
#: shard below saturation at R=1 and R=3, so the latency percentiles
#: measure service and short queues, not an ever-growing backlog.
MEAN_INTERARRIVAL_CYCLES = 16_000_000.0
#: Anti-entropy cadence at R=3: about four sweeps over the schedule.
ANTI_ENTROPY_CYCLES = REQUESTS_PER_CLIENT * MEAN_INTERARRIVAL_CYCLES / 4
#: (fraction of the schedule, action, shard) for ``serve_r3_chaos``.
CHAOS_SCRIPT = (
    (0.30, "partition", 1),
    (0.45, "heal", 1),
    (0.60, "lose", 2),
    (0.80, "rebalance", None),
)


@dataclass
class ServingSetup:
    schedule: object
    simulation: object


@dataclass
class ServingOutcome:
    report: object
    #: ``(value, degraded)`` of every request, in schedule order.
    responses: List[Tuple[int, bool]]


class Serving:
    def __init__(self, name: str, replication: int, chaos: bool) -> None:
        self.name = name
        self.replication = replication
        self.chaos = chaos

    def import_program(self) -> None:
        import repro.serve.cluster  # noqa: F401
        import repro.serve.simulation  # noqa: F401
        import repro.serve.traffic  # noqa: F401

    def setup(self, seed: int) -> ServingSetup:
        from repro.serve import traffic
        from repro.serve.cluster import ClusterConfig, ShardedCluster
        from repro.serve.simulation import ChaosAction, ServingSimulation

        # Looked up on the module so the traced run's wrapper sees it.
        schedule = traffic.generate_schedule(
            traffic.TrafficConfig(
                clients=CLIENTS,
                requests_per_client=REQUESTS_PER_CLIENT,
                n_keys=N_KEYS,
                zipf_skew=1.02,
                mean_interarrival_cycles=MEAN_INTERARRIVAL_CYCLES,
                write_fraction=0.25,
                tenants=4,
                seed=seed,
            )
        )
        cluster = ShardedCluster(
            ClusterConfig(
                n_shards=SHARDS,
                n_keys=N_KEYS,
                runtime="trackfm",
                local_memory=LOCAL_MEMORY,
                tenant_quota_bytes=TENANT_QUOTA,
                seed=seed,
                replication=self.replication,
                anti_entropy_interval_cycles=(
                    ANTI_ENTROPY_CYCLES if self.replication > 1 else None
                ),
            )
        )
        chaos = ()
        if self.chaos:
            end = float(schedule.times[-1])
            chaos = tuple(
                ChaosAction(end * frac, action, shard)
                for frac, action, shard in CHAOS_SCRIPT
            )
        return ServingSetup(schedule, ServingSimulation(cluster, schedule, chaos))

    def instrumented_objects(self, state: ServingSetup) -> list:
        return [state.simulation]

    def run(self, state: ServingSetup, instrument: Optional[Callable] = None) -> ServingOutcome:
        cluster = state.simulation.cluster
        responses: List[Tuple[int, bool]] = []
        record = responses.append
        serve = cluster.serve
        own = "serve" in vars(cluster)

        def tapped(key, tenant=0, write=False):
            result = serve(key, tenant=tenant, write=write)
            record((result.value, result.degraded))
            return result

        cluster.serve = tapped
        try:
            report = state.simulation.run()
        finally:
            if own:
                cluster.serve = serve
            else:
                del cluster.serve
        return ServingOutcome(report, responses)

    def references(self, state: ServingSetup):
        return None

    def evaluate(self, state: ServingSetup, outcome: ServingOutcome, _refs) -> Evaluation:
        from repro.machine.costs import GuardKind

        schedule = state.schedule
        sim = state.simulation
        report = outcome.report
        keys = schedule.keys.tolist()
        writes = schedule.writes.tolist()
        checked = oracles.check_responses(keys, writes, outcome.responses)
        model = checked["model"]
        final_mismatches = sum(
            1 for key in range(N_KEYS) if sim.final_values[key] != model.final(key)
        )
        errors = []
        if final_mismatches:
            errors.append(f"{final_mismatches} keys' final values differ from the model")
        if report.requests != len(keys):
            errors.append(f"served {report.requests} of {len(keys)} requests")
        if not self.chaos and checked["failed"]:
            errors.append(f"{checked['failed']} requests failed on a fault-free run")

        cluster = sim.cluster
        shards = [shard for _sid, shard in sorted(cluster.shards.items())]
        merged = cluster.merged_metrics()
        stats = cluster.stats
        guards = {kind.name: merged.guard_count(kind) for kind in GuardKind}
        counters = {
            "remote_fetches": merged.remote_fetches,
            "bytes_fetched": merged.bytes_fetched,
            "evictions": merged.evictions,
            "prefetches_issued": merged.prefetches_issued,
            "prefetches_useful": merged.prefetches_useful,
            "retries": merged.retries,
            "timeouts": merged.timeouts,
            "drops": merged.drops,
            "read_repairs": merged.read_repairs,
            "promoted_keys": stats.promoted_keys,
            "healed_stale_replicas": stats.healed_stale_replicas,
            "stale_reads": checked["stale_reads"],
            "guards": guards,
        }
        pct = report.latency_percentiles
        sim_metrics = {
            "requests": report.requests,
            "accesses": merged.accesses,
            "cycles": [shard.metrics.cycles for shard in shards],
            "bytes_moved": merged.bytes_fetched + merged.bytes_evacuated,
            "p50": pct["p50"],
            "p99": pct["p99"],
        }
        return Evaluation(
            attempted=len(keys),
            failed=checked["failed"],
            errors=errors,
            sim=sim_metrics,
            counters=counters,
            detail={
                "degraded_requests": checked["degraded"],
                "value_mismatches": checked["mismatched"],
                "stale_reads": checked["stale_reads"],
                "final_value_mismatches": final_mismatches,
                "percentile_samples": report.requests,
                "percentile_of": "end-to-end request latency, queue + service",
                "sim_cycles_geomean_over": f"the {len(shards)} shard runtimes",
                "cluster_stats": report.cluster_stats,
                "values_checksum": report.values_checksum,
                "completions_fingerprint": report.completions_fingerprint,
                "schedule_fingerprint": report.schedule_fingerprint,
            },
            cross={
                "requests": report.requests,
                "guard_calls": sum(
                    guards[k] for k in ("FAST", "SLOW", "LOCALITY", "CUSTODY_MISS")
                ),
                "remote_fetches": merged.remote_fetches,
            },
        )
