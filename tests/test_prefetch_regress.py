"""The ``python -m repro.bench pprefetch`` baseline gate."""

import json

from repro.bench.gate import baseline_path, check, record
from repro.bench.prefetch_regress import GATE, WORKLOADS, measure_bench

CHECKED_IN = "benchmarks/baselines"


class TestMeasurement:
    def test_programmed_beats_stride_on_stream(self):
        data = measure_bench("stream")
        assert data["programmed"]["demand_misses"] <= data["stride"]["demand_misses"]
        assert data["programmed"]["demand_misses"] == 0
        assert data["programmed"]["cycles"] < data["stride"]["cycles"]
        # Scheduling moves fetches earlier; it must not add traffic.
        assert data["programmed"]["bytes_fetched"] == data["stride"]["bytes_fetched"]
        assert data["programmed"]["value"] == data["stride"]["value"]

    def test_nas_kernel_covered(self):
        data = measure_bench("nas_cg")
        assert data["programmed"]["demand_misses"] <= data["stride"]["demand_misses"]
        assert data["programmed"]["value"] == data["stride"]["value"]


class TestCheckedInBaselines:
    def test_checked_in_baselines_hold(self):
        report = check(GATE, CHECKED_IN)
        assert report["ok"], json.dumps(report, indent=2, default=str)

    def test_every_workload_has_a_baseline(self):
        for name in WORKLOADS:
            assert baseline_path(GATE, CHECKED_IN, name).exists()


class TestGateMechanics:
    def test_tampered_baseline_fails(self, tmp_path):
        record(GATE, tmp_path, ["stream"])
        path = baseline_path(GATE, tmp_path, "stream")
        blob = json.loads(path.read_text())
        blob["stride"]["demand_misses"] += 1
        path.write_text(json.dumps(blob))
        report = check(GATE, tmp_path, ["stream"])
        assert not report["ok"]
        assert report["benches"]["stream"]["status"] == "mismatch"
