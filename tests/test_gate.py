"""The shared baseline gate (``repro.bench.gate``) and every gate's invariants.

The record/check/diff/CLI mechanics run once, on a fake gate whose
``measure`` is a constant, so they cost nothing.  Each real gate's
invariants are pure functions and run on doctored copies of the
checked-in baselines; the checked-in baselines themselves are checked
end to end by the per-bench test files and by CI.
"""

import copy
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro
from repro.bench import gate
from repro.bench.__main__ import SUBCOMMANDS
from repro.bench.__main__ import main as bench_main
from repro.bench.gate import Gate, baseline_path, check, diff_paths, dumps, record

CHECKED_IN = Path("benchmarks/baselines")
CI_WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"


def _constant(bench):
    # A tuple, so the exact compare must survive the JSON round trip.
    return {"bench": bench, "pair": (1, 2), "cells": {"x": {"n": 1}}}


FAKE = Gate(
    name="fake",
    prefix="FAKE_",
    benches=("a", "b"),
    measure=_constant,
    command="python -m fake",
)


def _checked_in(name):
    return json.loads((CHECKED_IN / name).read_text())


def _tamper(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(dumps(doc))


class TestSharedGate:
    def test_record_then_check_round_trips(self, tmp_path):
        written = record(FAKE, tmp_path)
        assert written == [tmp_path / "FAKE_a.json", tmp_path / "FAKE_b.json"]
        assert written[0].read_text() == (
            json.dumps(_constant("a"), indent=2, sort_keys=True) + "\n"
        )
        report = check(FAKE, tmp_path)
        assert report["ok"]
        assert [e["status"] for e in report["benches"].values()] == ["ok", "ok"]
        assert report["benches"]["a"]["measured"]["pair"] == [1, 2]

    def test_missing_baseline_fails(self, tmp_path):
        report = check(FAKE, tmp_path, ["b"])
        assert not report["ok"]
        entry = report["benches"]["b"]
        assert entry["status"] == "missing-baseline"
        assert entry["hint"] == "run: python -m fake --bench b --record"

    def test_tampered_baseline_fails(self, tmp_path):
        record(FAKE, tmp_path)
        _tamper(baseline_path(FAKE, tmp_path, "a"), lambda d: d["cells"]["x"].update(n=2))
        report = check(FAKE, tmp_path)
        assert not report["ok"]
        assert report["benches"]["b"]["status"] == "ok"
        entry = report["benches"]["a"]
        assert entry["status"] == "mismatch"
        [failure] = entry["failures"]
        assert failure["detail"] == [{"path": "cells.x.n", "expected": 2, "got": 1}]

    def test_only_the_exact_field_is_exact(self, tmp_path):
        runs = iter(range(100))
        host_timed = Gate(
            name="timed",
            prefix="T_",
            benches=("a",),
            measure=lambda b: {"fingerprint": {"v": 7}, "seconds": next(runs)},
            command="python -m timed",
            exact_field="fingerprint",
        )
        record(host_timed, tmp_path)
        assert check(host_timed, tmp_path)["ok"]
        _tamper(baseline_path(host_timed, tmp_path, "a"), lambda d: d["fingerprint"].update(v=8))
        entry = check(host_timed, tmp_path)["benches"]["a"]
        assert entry["failures"][0]["detail"][0]["path"] == "fingerprint.v"

    def test_failed_invariant_names_the_status(self, tmp_path):
        strict = Gate(
            name="strict",
            prefix="FAKE_",
            benches=("a",),
            measure=_constant,
            command="python -m strict",
            invariants=lambda measured, baseline: [("too-slow", measured["pair"])],
        )
        record(strict, tmp_path)
        report = check(strict, tmp_path)
        assert not report["ok"]
        assert report["benches"]["a"]["status"] == "too-slow"
        assert report["benches"]["a"]["failures"] == [{"status": "too-slow", "detail": [1, 2]}]

    def test_diff_is_capped(self):
        expected = {f"k{i:03d}": i + 1 for i in range(100)}
        got = {key: -value for key, value in expected.items()}
        diffs = diff_paths(expected, got)
        assert len(diffs) == gate.MAX_DIFF_PATHS
        assert diffs[0] == {"path": "k000", "expected": 1, "got": -1}
        assert diff_paths([1, {"a": 2}], [1, {"a": 3}], "doc") == [
            {"path": "doc[1].a", "expected": 2, "got": 3}
        ]


def _run_cli(argv):
    return gate.run(FAKE, gate.parser(FAKE).parse_args(argv))


class TestCLI:
    def test_exit_codes_and_out_report(self, tmp_path, capsys):
        dir_args = ["--baseline-dir", str(tmp_path)]
        assert _run_cli(["--record", *dir_args]) == 0
        out = tmp_path / "report" / "check.json"
        assert _run_cli(["--check", *dir_args, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ok"]
        assert "[fake] all baselines hold" in capsys.readouterr().out

        _tamper(tmp_path / "FAKE_b.json", lambda d: d.update(pair=[2, 1]))
        assert _run_cli(["--check", *dir_args, "--bench", "b", "--out", str(out)]) == 1
        assert json.loads(out.read_text())["benches"]["b"]["status"] == "mismatch"
        err = capsys.readouterr().err
        assert "[fake] b: mismatch" in err and "pair[0]: expected 2, got 1" in err

    @pytest.mark.parametrize("argv", [[], ["--record", "--check"], ["--check", "--bench", "z"]])
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            _run_cli(argv)
        assert exc.value.code == 2

    def test_regress_has_no_tolerance_option(self):
        with pytest.raises(SystemExit) as exc:
            bench_main(["regress", "--check", "--tolerance", "0.5"])
        assert exc.value.code == 2


class TestHints:
    @pytest.mark.parametrize("mode", ["full", "quick"])
    def test_ablate_hint_names_the_checked_bench(self, tmp_path, capsys, mode):
        from repro.ablate.__main__ import main as ablate_main

        flags = ["--quick"] if mode == "quick" else []
        assert ablate_main(["--check", "--baseline-dir", str(tmp_path), *flags]) == 1
        err = capsys.readouterr().err
        assert f"[ablate] {mode}: missing-baseline" in err
        record = " ".join(["python -m repro.ablate", *flags, "--record"])
        assert f"hint: run: {record}\n" in err


class TestSubcommands:
    def test_cli_dispatch_via_bench_module(self, tmp_path, capsys, monkeypatch):
        module = types.ModuleType("fake_gate_cli")
        module.main = _run_cli
        monkeypatch.setitem(sys.modules, "fake_gate_cli", module)
        monkeypatch.setitem(SUBCOMMANDS, "fake", "fake_gate_cli")
        assert bench_main(["fake", "--record", "--baseline-dir", str(tmp_path)]) == 0
        assert bench_main(["fake", "--check", "--baseline-dir", str(tmp_path)]) == 0
        assert "all baselines hold" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_every_subcommand_is_a_gate(self, name):
        module = importlib.import_module(SUBCOMMANDS[name])
        assert callable(module.main)
        assert isinstance(module.GATE, Gate)
        assert module.GATE.command in (f"python -m repro.bench {name}", "python -m repro.ablate")

    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_every_gate_is_checked_in_ci(self, name):
        command = importlib.import_module(SUBCOMMANDS[name]).GATE.command
        lines = CI_WORKFLOW.read_text().splitlines()
        assert any(
            command in line and "--check" in line.split(command, 1)[1] for line in lines
        ), f"no '{command} ... --check' step in {CI_WORKFLOW.name}"

    def test_import_repro_bench_loads_no_gate_module(self):
        gate_modules = sorted(set(SUBCOMMANDS.values()) | {"repro.bench.gate"})
        code = (
            "import sys, repro.bench; "
            f"print([m for m in {gate_modules!r} if m in sys.modules])"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"


# -- each real gate's invariants, on doctored documents ------------------------


class TestInvariants:
    def test_checked_in_baselines_satisfy_every_invariant(self):
        for name in sorted(SUBCOMMANDS):
            g = importlib.import_module(SUBCOMMANDS[name]).GATE
            for bench in g.benches:
                path = baseline_path(g, CHECKED_IN, bench)
                if path.exists():
                    doc = json.loads(path.read_text())
                    assert g.invariants(doc, doc) == [], (name, bench)

    def test_regress_speedup_below_the_floor(self):
        from repro.bench.regress import GATE, TOLERANCE

        baseline = _checked_in("BENCH_interp_stream.json")
        measured = copy.deepcopy(baseline)
        floor = baseline["speedup_vs_legacy"] * (1 - TOLERANCE)
        measured["speedup_vs_legacy"] = floor * 1.01
        assert GATE.invariants(measured, baseline) == []
        measured["speedup_vs_legacy"] = floor * 0.99
        [(status, _)] = GATE.invariants(measured, baseline)
        assert status == "speedup-regression"

    def test_pprefetch_more_programmed_misses_than_stride(self):
        from repro.bench.prefetch_regress import GATE

        doc = _checked_in("BENCH_pprefetch_stream.json")
        doc["programmed"]["demand_misses"] = doc["stride"]["demand_misses"] + 1
        assert [s for s, _ in GATE.invariants(doc, doc)] == ["prefetch-regression"]

    def test_pprefetch_value_divergence(self):
        from repro.bench.prefetch_regress import GATE

        doc = _checked_in("BENCH_pprefetch_nas_cg.json")
        doc["programmed"]["value"] += 1
        assert [s for s, _ in GATE.invariants(doc, doc)] == ["semantics-diverge"]

    @pytest.mark.parametrize("field", ["within_band", "values_equal"])
    def test_hybrid_out_of_band_cell(self, field):
        from repro.bench.hybrid import GATE

        doc = _checked_in("BENCH_hybrid_dense.json")
        doc["cells"]["mem_50"][field] = False
        assert GATE.invariants(doc, doc) == [("out-of-band", ["mem_50"])]

    def test_hybrid_phase_without_an_outright_win(self):
        from repro.bench.hybrid import GATE

        doc = _checked_in("BENCH_hybrid_phase.json")
        for cell in doc["cells"].values():
            cell["wins_outright"] = False
        assert [s for s, _ in GATE.invariants(doc, doc)] == ["no-outright-win"]
        # Only a mixed-density workload has to win outright.
        dense = _checked_in("BENCH_hybrid_dense.json")
        for cell in dense["cells"].values():
            cell["wins_outright"] = False
        assert GATE.invariants(dense, dense) == []
