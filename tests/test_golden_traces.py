"""Golden-trace snapshot tests: the event *shape* must not drift.

Each golden file in ``tests/goldens/`` holds the normalized event
stream (:func:`repro.trace.normalize_events`: categories, names,
counts, run-length-encoded ordering — no timestamps, durations or
latencies) of one ``(workload, runtime, seed)`` trace, plus the
workload's computed value.  A behaviour change in the compiler or a
runtime shows up here as a sequence diff before it shows up in any
aggregate number.

When a change is *intended*, regenerate the files and review the diff
like any other code change::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --update-goldens
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.trace import normalize_events, run_traced

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: The snapshotted configurations: both workloads under the two
#: runtimes with the richest event vocabulary, the two hybrid tiers'
#: replays, and the sharded serving workload, at fixed seeds.
CASES = [
    ("stream", "trackfm", 0),
    ("hashmap", "trackfm", 0),
    ("stream", "fastswap", 0),
    ("hashmap", "aifm", 0),
    ("stream", "hybrid", 0),
    ("hashmap", "adaptive", 0),
    ("serve", "hybrid", 0),
]


def _golden_path(workload: str, runtime: str, seed: int) -> Path:
    return GOLDEN_DIR / f"{workload}_{runtime}_seed{seed}.json"


def _observe(workload: str, runtime: str, seed: int) -> dict:
    result = run_traced(workload, runtime, seed=seed)
    shape = normalize_events(result.tracer.events)
    return {
        "workload": workload,
        "runtime": runtime,
        "seed": seed,
        "value": result.value,
        **shape,
    }


class TestGoldenTraces:
    @pytest.mark.parametrize("workload,runtime,seed", CASES)
    def test_trace_shape_matches_golden(self, workload, runtime, seed, update_goldens):
        observed = _observe(workload, runtime, seed)
        path = _golden_path(workload, runtime, seed)
        if update_goldens:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(json.dumps(observed, indent=2) + "\n")
            pytest.skip(f"golden rewritten: {path}")
        assert path.exists(), (
            f"missing golden {path}; generate it with "
            "pytest tests/test_golden_traces.py --update-goldens"
        )
        golden = json.loads(path.read_text())
        assert observed["value"] == golden["value"], (
            f"{workload}/{runtime}: workload result changed "
            f"({golden['value']} -> {observed['value']})"
        )
        assert observed["totals"] == golden["totals"], (
            f"{workload}/{runtime}: per-event totals drifted; if intended, "
            "rerun with --update-goldens and review the diff"
        )
        assert observed["sequence"] == golden["sequence"], (
            f"{workload}/{runtime}: event ordering drifted; if intended, "
            "rerun with --update-goldens and review the diff"
        )

    def test_normalization_is_timestamp_free(self):
        """Same shape regardless of clock values: ts/dur never leak in."""
        result = run_traced("stream", "fastswap", seed=0)
        shape = normalize_events(result.tracer.events)
        for ev in result.tracer.events:
            ev.ts += 12345.0
            ev.dur += 99.0
        assert normalize_events(result.tracer.events) == shape

    def test_runs_are_reproducible(self):
        a = _observe("hashmap", "aifm", 3)
        b = _observe("hashmap", "aifm", 3)
        assert a == b

    def test_different_seeds_differ(self):
        a = _observe("hashmap", "aifm", 0)
        b = _observe("hashmap", "aifm", 1)
        # LCG probe order depends on the seed; the RLE sequence must too.
        assert a["sequence"] != b["sequence"]
