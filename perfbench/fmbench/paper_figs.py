"""``paper_figs``: the paper's tables and figures from ``repro.bench``.

The experiments have fixed parameters, so the workload seed is recorded
and changes nothing.  Every series is compared with
``perfbench/expected/paper_figs.json``; series measured in host time
(compile time) are checked for shape only.  The legacy ``ablation_*``
experiments are left out.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional

from fmbench import oracles
from fmbench.core import PAPER_EXPERIMENTS as EXPERIMENTS
from fmbench.core import Evaluation
from fmbench.host import nearest_rank

EXPECTED_PATH = Path(__file__).resolve().parent.parent / "expected" / "paper_figs.json"
#: Series measured in host time: checked for shape, not value.
HOST_TIMED = {"compile_costs": ("compile time (x)",)}

#: Series that report simulated time, as (experiment, series, cycles per unit).
TIME_SERIES = (
    ("table1", "Cached", 1.0),
    ("table1", "Uncached", 1.0),
    ("table2", "Local Cost", 1.0),
    ("table2", "Remote Cost", 1.0),
    ("fig13", "TrackFM 64B time (s)", None),  # seconds at the simulated clock
    ("fig13", "Fastswap time (s)", None),
)
#: Series that report data moved, in GB (2^30 bytes) at paper scale.
DATA_SERIES = (
    ("fig13", "TrackFM 64B data (GB)"),
    ("fig13", "Fastswap data (GB)"),
    ("fig16", "TrackFM data (GB)"),
)
#: Series that count far-memory events (guards, faults), with their scale.
EVENT_SERIES = (
    ("fig14", "TrackFM guards (x10M)", 1e7),
    ("fig14", "Fastswap faults (x10M)", 1e7),
    ("fig16", "TrackFM slow guards (x100M)", 1e8),
    ("fig16", "Fastswap faults (x100M)", 1e8),
)


def result_to_json(result) -> dict:
    return {
        "x_values": [x if isinstance(x, (int, float)) else str(x) for x in result.x_values],
        "series": {s.name: list(s.values) for s in result.series},
    }


class PaperFigs:
    name = "paper_figs"
    def import_program(self) -> None:
        import repro.bench  # noqa: F401

    def setup(self, seed: int) -> Dict[str, dict]:
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            return json.load(fh)

    def instrumented_objects(self, state) -> list:
        return []

    def run(self, state, instrument: Optional[Callable] = None) -> Dict[str, object]:
        import repro.bench as bench

        # Looked up on the module each time so the traced run's
        # per-experiment wrappers see the calls.
        return {name: getattr(bench, name)() for name in EXPERIMENTS}

    def references(self, state):
        return state

    def evaluate(self, state, outcome: Dict[str, object], expected) -> Evaluation:
        from repro.bench.harness import CPU_HZ

        failed: List[str] = []
        problems = {}
        for name in EXPERIMENTS:
            diffs = oracles.experiment_differences(expected[name], outcome[name])
            if diffs:
                failed.append(name)
                problems[name] = diffs
        series = {
            (name, s.name): s.values for name in EXPERIMENTS for s in outcome[name].series
        }
        cycles = [
            v * (scale if scale is not None else CPU_HZ)
            for exp, s, scale in TIME_SERIES
            for v in series[(exp, s)]
            if v > 0
        ]
        moved = sum(v * 2**30 for key in DATA_SERIES for v in series[key])
        events = sum(v * scale for exp, s, scale in EVENT_SERIES for v in series[(exp, s)])
        return Evaluation(
            attempted=len(EXPERIMENTS),
            failed=len(failed),
            errors=[f"{name}: {'; '.join(problems[name])}" for name in failed],
            sim={
                "requests": len(EXPERIMENTS),
                "accesses": events,
                "cycles": cycles,
                "bytes_moved": moved,
                "p50": nearest_rank(cycles, 50),
                "p99": nearest_rank(cycles, 99),
            },
            counters={},
            detail={
                "experiments": list(EXPERIMENTS),
                "requests_are": "experiments",
                "accesses_are": "guard and fault events the figures report "
                                + ", ".join(f"{e}:{s}" for e, s, _ in EVENT_SERIES),
                "cycles_are": "simulated times the tables and figures report "
                              + ", ".join(f"{e}:{s}" for e, s, _ in TIME_SERIES),
                "bytes_moved_is": "data-moved series "
                                  + ", ".join(f"{e}:{s}" for e, s in DATA_SERIES),
                "percentile_samples": len(cycles),
                "percentile_of": "the simulated times above (nearest rank)",
            },
            cross={"experiments": len(EXPERIMENTS)},
        )
