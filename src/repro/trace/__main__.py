"""``python -m repro.trace``: run a workload under tracing, export both formats.

Examples::

    python -m repro.trace --workload stream --runtime trackfm --out /tmp/t.json
    python -m repro.trace --workload hashmap --runtime fastswap \\
        --out hashmap.json --jsonl hashmap.jsonl --seed 3

The ``--out`` file is Chrome ``trace_event`` JSON (load it in
``chrome://tracing`` or https://ui.perfetto.dev); the JSONL sibling
(``--jsonl``, default ``<out>.jsonl``) is one compact event per line
for grep/jq pipelines.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import RuntimeConfigError, TraceError
from repro.runtimes import RUNTIME_KINDS
from repro.trace.drivers import WORKLOADS, run_traced
from repro.trace.export import export_chrome_trace, export_jsonl


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Run a registered workload under a runtime with tracing on.",
    )
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), default="stream",
        help="which workload shape to run (default: stream)",
    )
    parser.add_argument(
        "--runtime", choices=sorted(RUNTIME_KINDS), default="trackfm",
        help="which runtime model to run it under (default: trackfm)",
    )
    parser.add_argument(
        "--out", type=Path, required=True,
        help="Chrome trace_event JSON output path",
    )
    parser.add_argument(
        "--jsonl", type=Path, default=None,
        help="compact JSONL output path (default: <out>.jsonl)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload seed (default: 0)",
    )
    parser.add_argument(
        "--faults", type=str, default=None, metavar="SPEC",
        help=(
            "inject network faults, e.g. "
            "'seed=3,drop=0.02,spike=0.05:20000,jitter=500,pause=100:140' "
            "(see docs/resilience.md)"
        ),
    )
    parser.add_argument(
        "--integrity", type=str, default=None, metavar="SPEC",
        help=(
            "checksum-verify fetched payloads: 'on', 'off', or "
            "'seed=1,refetch=2,verify=25,crash=40:farnode' "
            "(see docs/resilience.md); corruption rates come from "
            "--faults keys bitflip/stale/torn/lostwb"
        ),
    )
    parser.add_argument(
        "--replication", type=int, default=1, metavar="N",
        help=(
            "replica count for the 'serve' workload (default 1; N>=2 "
            "turns the knockout into a quorum failover — see "
            "docs/serving.md)"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the summary printed to stdout",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        fault_plan = None
        if args.faults is not None:
            from repro.net.faults import parse_fault_spec

            fault_plan = parse_fault_spec(args.faults)
        integrity = None
        if args.integrity is not None:
            from repro.integrity import parse_integrity_spec

            integrity = parse_integrity_spec(args.integrity)
        result = run_traced(
            args.workload, args.runtime, seed=args.seed, fault_plan=fault_plan,
            integrity=integrity, replication=args.replication,
        )
    except (RuntimeConfigError, TraceError) as err:
        # Raised while validating the flags' values, before the run does
        # any work: a usage error, not a crash.
        parser.error(str(err))
    export_chrome_trace(result.tracer, args.out, metadata=result.metadata())
    jsonl_path = args.jsonl
    if jsonl_path is None:
        jsonl_path = args.out.with_suffix(args.out.suffix + "l")
    lines = export_jsonl(result.tracer, jsonl_path)
    if not args.quiet:
        summary = result.tracer.summary()
        print(f"{args.workload} under {args.runtime} (seed {args.seed}):")
        print(f"  value   = {result.value}")
        print(f"  cycles  = {result.cycles:.0f}")
        m = result.metrics
        if m.drops or m.retries or m.degraded_accesses or m.deferred_writebacks:
            print(
                f"  faults  = drops {m.drops}, timeouts {m.timeouts}, "
                f"retries {m.retries}, degraded {m.degraded_accesses}, "
                f"deferred writebacks {m.deferred_writebacks}"
            )
        if m.corruptions_detected or m.quarantined_objects or m.journal_replays:
            print(
                f"  integrity = detected {m.corruptions_detected}, "
                f"repaired {m.corruptions_repaired}, "
                f"quarantined {m.quarantined_objects}, "
                f"journal replays {m.journal_replays}"
            )
        print(f"  events  = {summary['events']} ({summary['by_category']})")
        for name, stats in summary["histograms"].items():
            print(f"  {name}: {json.dumps(stats)}")
        print(f"  chrome trace -> {args.out}")
        print(f"  jsonl ({lines} lines) -> {jsonl_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
