#!/usr/bin/env python3
"""Re-record ``perfbench/expected/paper_figs.json`` from the current code.

Run from the repository root after an intentional change to a paper
experiment, and review the diff::

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from fmbench.paper_figs import EXPECTED_PATH, EXPERIMENTS, HOST_TIMED, result_to_json  # noqa: E402


def main() -> int:
    import repro.bench as bench

    expected = {}
    for name in EXPERIMENTS:
        entry = result_to_json(getattr(bench, name)())
        if name in HOST_TIMED:
            entry["host_timed"] = list(HOST_TIMED[name])
        expected[name] = entry
    EXPECTED_PATH.parent.mkdir(exist_ok=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
