"""The baseline gate behind every ``--record``/``--check`` command.

Five gates pin this reproduction's results in checked-in JSON files:
the interpreter (``regress``), programmed prefetch (``pprefetch``),
serving, the adaptive hybrid and the ablation report.  Each declares a
:class:`Gate`; this module records, checks, diffs, parses the command
line and prints statuses the same way for all of them.

A baseline is ``<baseline-dir>/<prefix><bench>.json``, written with
``indent=2``, sorted keys and a trailing newline, so re-recording an
unchanged tree is byte-identical.  ``--check`` re-measures, compares
the exact part of the document with ``==`` after a JSON round trip (so
tuples and lists compare alike), then runs the gate's invariants.  The
simulations are pure functions of their seeds: a difference in an
exact part is semantic drift, never noise.  docs/performance.md tables
each gate's exact part, invariants and status names.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

DEFAULT_BASELINE_DIR = Path("benchmarks") / "baselines"

#: A mismatch report names at most this many differing paths.
MAX_DIFF_PATHS = 40

Document = Dict[str, object]

#: A failed invariant: its status name and a JSON-safe detail.
Failure = Tuple[str, object]


@dataclass(frozen=True)
class Gate:
    """One baseline gate: what to measure and what must hold."""

    #: Short name, used in status lines.
    name: str
    #: Baseline file name prefix, e.g. ``"BENCH_pprefetch_"``.
    prefix: str
    #: Every bench the gate knows, in check order.
    benches: Tuple[str, ...]
    #: Measures one bench into a JSON-safe document.
    measure: Callable[[str], Document]
    #: The command line that runs this gate.
    command: str
    #: The document field compared exactly; ``None`` compares it whole.
    exact_field: Optional[str] = None
    #: ``invariants(measured, baseline)``: pure, returns named failures.
    invariants: Callable[[Document, Document], List[Failure]] = lambda m, b: []
    #: The command-line words that restrict the gate to one bench.
    select: Callable[[str], Sequence[str]] = lambda bench: ("--bench", bench)


def baseline_path(gate: Gate, baseline_dir: Path, bench: str) -> Path:
    return Path(baseline_dir) / f"{gate.prefix}{bench}.json"


def dumps(doc: object) -> str:
    """The canonical baseline bytes of a document."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path: Path, doc: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps(doc))


def diff_paths(expected, got, prefix: str = "", diffs=None) -> List[Document]:
    """The first :data:`MAX_DIFF_PATHS` leaf paths where two documents differ."""
    diffs = [] if diffs is None else diffs
    if len(diffs) >= MAX_DIFF_PATHS:
        return diffs
    if isinstance(expected, dict) and isinstance(got, dict):
        for key in sorted(set(expected) | set(got)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in expected:
                diffs.append({"path": path, "expected": None, "got": got[key]})
            elif key not in got:
                diffs.append({"path": path, "expected": expected[key], "got": None})
            elif expected[key] != got[key]:
                diff_paths(expected[key], got[key], path, diffs)
    elif isinstance(expected, list) and isinstance(got, list) and len(expected) == len(got):
        for i, (e, g) in enumerate(zip(expected, got)):
            if e != g:
                diff_paths(e, g, f"{prefix}[{i}]", diffs)
    else:
        diffs.append({"path": prefix, "expected": expected, "got": got})
    return diffs[:MAX_DIFF_PATHS]


def record(
    gate: Gate,
    baseline_dir: Path,
    benches: Optional[Sequence[str]] = None,
) -> List[Path]:
    """Measure and (re)write baseline files; returns the paths written."""
    written = []
    for bench in benches or gate.benches:
        path = baseline_path(gate, baseline_dir, bench)
        write_json(path, gate.measure(bench))
        written.append(path)
    return written


def check(
    gate: Gate,
    baseline_dir: Path,
    benches: Optional[Sequence[str]] = None,
) -> Document:
    """Re-measure and compare against the baselines; ``report["ok"]`` gates.

    Each bench's entry has one ``status``: ``ok``, ``missing-baseline``
    (with a ``hint`` naming the command that records it), ``mismatch``
    or the name of a failed invariant — the first of its ``failures``.
    It also carries the round-tripped ``measured`` document.
    """
    report: Document = {"gate": gate.name, "benches": {}, "ok": True}
    for bench in benches or gate.benches:
        path = baseline_path(gate, baseline_dir, bench)
        entry: Document = {"baseline": str(path)}
        report["benches"][bench] = entry  # type: ignore[index]
        if not path.exists():
            command = " ".join([gate.command, *gate.select(bench), "--record"])
            entry.update(status="missing-baseline", hint=f"run: {command}")
            report["ok"] = False
            continue
        baseline = json.loads(path.read_text())
        measured = json.loads(dumps(gate.measure(bench)))
        field = gate.exact_field
        expected = baseline.get(field) if field else baseline
        got = measured.get(field) if field else measured
        failures: List[Failure] = []
        if got != expected:
            failures.append(("mismatch", diff_paths(expected, got, field or "")))
        failures.extend(gate.invariants(measured, baseline))
        entry["measured"] = measured
        entry["failures"] = [{"status": s, "detail": d} for s, d in failures]
        entry["status"] = failures[0][0] if failures else "ok"
        report["ok"] = report["ok"] and not failures
    return report


def print_report(gate: Gate, report: Document) -> int:
    """One status line per bench plus failure details; returns the exit code."""
    for bench, entry in report["benches"].items():  # type: ignore[union-attr]
        stream = sys.stdout if entry["status"] == "ok" else sys.stderr
        print(f"[{gate.name}] {bench}: {entry['status']}", file=stream)
        if "hint" in entry:
            print(f"  hint: {entry['hint']}", file=stream)
        for failure in entry.get("failures", ()):
            if failure["status"] != "mismatch":
                print(f"  {failure['status']}: {failure['detail']}", file=stream)
                continue
            for diff in failure["detail"]:
                print(
                    f"  {diff['path']}: expected {diff['expected']!r}, got {diff['got']!r}",
                    file=stream,
                )
    if report["ok"]:
        print(f"[{gate.name}] all baselines hold")
        return 0
    print(f"[{gate.name}] baseline gate FAILED", file=sys.stderr)
    return 1


def parser(gate: Gate, curves: bool = False) -> argparse.ArgumentParser:
    """The gate's command line; with ``curves`` no mode flag is required."""
    p = argparse.ArgumentParser(
        prog=gate.command, description=f"Record or check the {gate.name} baselines."
    )
    mode = p.add_mutually_exclusive_group(required=not curves)
    mode.add_argument("--record", action="store_true", help="measure and (re)write baselines")
    mode.add_argument("--check", action="store_true", help="gate against recorded baselines")
    p.add_argument(
        "--baseline-dir",
        type=Path,
        default=DEFAULT_BASELINE_DIR,
        help=f"baseline directory (default: {DEFAULT_BASELINE_DIR})",
    )
    p.add_argument(
        "--bench",
        action="append",
        choices=gate.benches,
        help="restrict to one bench (repeatable; default: all)",
    )
    p.add_argument("--out", type=Path, help="also write the check report JSON here")
    return p


def run(gate: Gate, args: argparse.Namespace) -> int:
    """Carry out a parsed ``--record`` or ``--check``."""
    if args.record:
        for path in record(gate, args.baseline_dir, args.bench):
            print(f"recorded {path}")
        return 0
    report = check(gate, args.baseline_dir, args.bench)
    if args.out is not None:
        write_json(args.out, report)
    return print_report(gate, report)
