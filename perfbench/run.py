#!/usr/bin/env python3
"""Layered TrackFM benchmark: one workload per process.

Run from the repository root::

    python3 perfbench/run.py --workload nas_far --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes the
traced run and prints the per-layer metrics.  The last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); the full result, with provenance, goes to
``perfbench/results/``.  The exit code is 1 when a correctness check
fails, 2 on a usage or set-up error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# One thread for numpy's BLAS: the workloads are single-threaded and the
# host is shared.  Must be set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path[:0] = [str(HERE), str(SRC)]

WORKLOADS = ("nas_far", "serve_r1", "serve_r3_chaos", "paper_figs")


def make_workload(name: str):
    if name == "nas_far":
        from fmbench.nas_far import NasFar

        return NasFar()
    if name == "serve_r1":
        from fmbench.serving import Serving

        return Serving("serve_r1", replication=1, chaos=False)
    if name == "serve_r3_chaos":
        from fmbench.serving import Serving

        return Serving("serve_r3_chaos", replication=3, chaos=True)
    from fmbench.paper_figs import PaperFigs

    return PaperFigs()


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return str(value)


def run_one(args) -> int:
    from fmbench import core, host

    workload = make_workload(args.workload)
    started = time.time()
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        result = core.measure_traced(workload, args.seed, RESULTS)
        units = core.PER_LAYER
    else:
        result = core.measure(workload, args.seed, args.seconds)
        units = core.END_TO_END
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC:
        print(f"imported repro from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    metrics = {name: {"value": float(result["metrics"][name]), "unit": unit}
               for name, unit in units.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "host": host.fingerprint(),
        **result,
        "metrics": metrics,
        "fail_rate": result["failed"] / result["attempted"],
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(_jsonable(record), indent=1, sort_keys=True) + "\n")

    width = max(len(n) for n in metrics)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} -> {out.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"{'fail_rate':<{width}}  {record['fail_rate']:.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    for err in result["errors"]:
        print(f"ERROR: {err}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another; one table."""
    rows, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        rows[name] = json.loads(lines[-1])
    print(f"\n{'workload':<16}{'correct':>8}{'failed':>10}  metrics")
    for name, row in rows.items():
        shown = ", ".join(f"{k}={v['value']:.4g} {v['unit']}"
                          for k, v in row["metrics"].items() if not k.startswith("bench."))
        print(f"{name:<16}{str(row['correct']):>8}{row['failed']:>10}  {shown}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro").is_dir():
        print(f"the program under test is missing: no {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
