"""``python -m repro.ablate`` — run the matrix, rank components, gate CI.

Modes::

    python -m repro.ablate                  # full matrix, markdown to stdout
    python -m repro.ablate --quick          # CI-sized matrix (all components)
    python -m repro.ablate --quick --record # (re)write the exact baseline
    python -m repro.ablate --quick --check  # gate against the baseline (CI)
    python -m repro.ablate --list           # show components + cells, no runs

The report is bit-deterministic (seeded simulation, no wall-clock), so
``--check`` compares the re-measured JSON document to
``benchmarks/baselines/ABLATION_quick.json`` (``ABLATION_full.json``
without ``--quick``) with ``==`` and fails on any drift, printing the
first differing paths; :mod:`repro.bench.gate` does the recording and
checking.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List, Optional

from repro.ablate.matrix import applicable_components, generate_matrix
from repro.ablate.registry import COMPONENTS
from repro.ablate.report import GATE, build_report, render_markdown, write_artifacts
from repro.bench import gate
from repro.bench.gate import DEFAULT_BASELINE_DIR


def _list_text(quick: bool) -> str:
    lines = ["components:"]
    for comp in COMPONENTS:
        lines.append(f"  {comp.name:22s} {comp.title}")
    cells = generate_matrix(quick)
    runs = sum(1 + len(applicable_components(spec)) for spec in cells)
    lines.append("")
    lines.append(f"cells ({'quick' if quick else 'full'} mode, {runs} runs):")
    for spec in cells:
        comps = ", ".join(c.name for c in applicable_components(spec))
        lines.append(f"  {spec.cell_id:28s} [{spec.kind}]  ablates: {comps or '-'}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ablate",
        description="Automated ablation matrix with a ranked importance report.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized matrix (trackfm+hybrid runtimes; all components)",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--record", action="store_true", help="measure and (re)write the baseline"
    )
    mode.add_argument(
        "--check", action="store_true", help="gate against the recorded baseline"
    )
    mode.add_argument(
        "--list", action="store_true", help="list components and cells, run nothing"
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=DEFAULT_BASELINE_DIR,
        help=f"baseline directory (default: {DEFAULT_BASELINE_DIR})",
    )
    parser.add_argument(
        "--out-json", type=Path, default=None, help="also write the JSON report here"
    )
    parser.add_argument(
        "--out-md", type=Path, default=None, help="also write the markdown report here"
    )
    args = parser.parse_args(argv)

    if args.list:
        print(_list_text(args.quick))
        return 0
    if args.record or args.check:
        mode = "quick" if args.quick else "full"
        if args.record:
            [path] = gate.record(GATE, args.baseline_dir, [mode])
            print(f"recorded {path}")
            report, rc = json.loads(path.read_text()), 0
        else:
            result = gate.check(GATE, args.baseline_dir, [mode])
            report = result["benches"][mode].get("measured")
            rc = gate.print_report(GATE, result)
        if report is not None:
            write_artifacts(report, args.out_json, args.out_md)
        return rc

    report = build_report(args.quick)
    write_artifacts(report, args.out_json, args.out_md)
    print(render_markdown(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
