"""Benchmark internals: parametrized entry points and data plumbing."""

import pytest

from repro.bench.ablations import ablation_hybrid_memcached
from repro.bench.harness import ExperimentResult
from repro.bench.stream_figs import fig07, fig10, fig11, fig12
from repro.bench.hashmap_figs import fig09
from repro.bench.app_figs import fig08, fig14
from repro.machine.scale import ScaleModel
from repro.units import MB
from repro.workloads.memcached import MemcachedWorkload


class TestParametrizedFigures:
    def test_custom_fractions_respected(self):
        r = fig07(fractions=(0.25, 0.75))
        assert r.x_values == ["25%", "75%"]
        assert len(r.get("Sum").values) == 2

    def test_custom_scale(self):
        coarse = fig07(scale=ScaleModel(factor=2048), fractions=(0.5,))
        fine = fig07(scale=ScaleModel(factor=512), fractions=(0.5,))
        # Scale-invariance of the plotted ratio (the design's key claim).
        assert coarse.get("Sum").values[0] == pytest.approx(
            fine.get("Sum").values[0], rel=0.05
        )

    def test_fig10_object_size_subset(self):
        r = fig10(object_sizes=(4096, 256), fractions=(0.5,))
        assert [s.name for s in r.series] == ["4KB", "256B"]

    def test_fig11_and_fig12_share_x_axis(self):
        a = fig11(fractions=(0.2, 0.8))
        b = fig12(fractions=(0.2, 0.8))
        assert a.x_values == b.x_values

    def test_fig08_fraction_override(self):
        r = fig08(fractions=(0.5,))
        assert len(r.get("all loops").values) == 1

    def test_fig09_smaller_sweep(self):
        r = fig09(object_sizes=(256,), fractions=(0.25, 1.0))
        assert len(r.series) == 1

    def test_fig14_notes_quantify_gap(self):
        r = fig14(fractions=(0.1,))
        assert any("AIFM" in note for note in r.notes)


class TestResultFormatting:
    def test_fmt_variants(self):
        fmt = ExperimentResult._fmt
        assert fmt(0.0) == "0"
        assert fmt(12345.0) == "12,345"
        assert fmt(12.34) == "12.3"
        assert fmt(1.2345) == "1.234"
        assert fmt("label") == "label"
        assert fmt(7) == "7"

    def test_to_text_alignment(self):
        r = ExperimentResult("e", "t", "x", ["a", "bbbb"], "y")
        r.add_series("col", [1.0, 2.0])
        lines = r.to_text().splitlines()
        header = next(l for l in lines if l.startswith("x"))
        assert "col" in header


class TestMemcachedRegions:
    def make(self):
        return MemcachedWorkload(
            working_set=8 * MB, n_keys=50_000, n_ops=10_000, skew=1.1
        )

    def test_region_heats_are_distributions(self):
        wl = self.make()
        for region in ("buckets", "items"):
            heat = wl._region_heat(4096, region)
            assert heat.sum() == pytest.approx(1.0)
            assert (heat >= 0).all()

    def test_unknown_region_rejected(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            self.make()._region_heat(4096, "nowhere")

    def test_bucket_region_denser_than_items(self):
        # Buckets are 8B each: a page holds 512 of them, so page-level
        # bucket heat concentrates more than item heat.
        wl = self.make()
        page = 4096
        bucket_hr = wl.region_hit_rate(page, "buckets", 16)
        item_hr = wl.region_hit_rate(page, "items", 16)
        assert bucket_hr > item_hr

    def test_hybrid_between_or_above_pure_systems(self):
        wl = self.make()
        local = 1 * MB
        hybrid = wl.run_hybrid(64, local)
        fsw = wl.run_fastswap(local)
        assert hybrid.cycles < fsw.cycles

    def test_hybrid_tracks_trackfm_and_beats_fastswap(self):
        # Zipf skews 1.0..1.3 at 1/512 of the paper's 12 GB working set.
        result = ablation_hybrid_memcached()
        hyb = result.get("Hybrid").values
        fsw = result.get("Fastswap").values
        tfm = result.get("TrackFM").values
        assert all(h > f for h, f in zip(hyb, fsw))
        assert all(h > 0.9 * t for h, t in zip(hyb, tfm))

    def test_hybrid_splits_traffic(self):
        wl = self.make()
        res = wl.run_hybrid(64, 1 * MB)
        # Both mechanisms moved data: pages for buckets, objects for items.
        assert res.metrics.major_faults > 0
        assert res.metrics.slow_path_guards > 0
