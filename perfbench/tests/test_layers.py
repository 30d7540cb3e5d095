"""Wrappers exist only inside the traced run, and see every call."""

import json
from pathlib import Path

from fmbench import core
from fmbench.layers import LAYERS, LayerTracer, global_boundaries, layer_of, leftover_wrappers
from fmbench.spans import SpanRecorder


def _small_program():
    from repro import CompilerConfig, PoolConfig, TrackFMCompiler, TrackFMProgram, TrackFMRuntime
    from repro.workloads.nas_kernels import build_mg_kernel

    compiler = TrackFMCompiler(CompilerConfig(object_size=256))
    runtime = TrackFMRuntime(PoolConfig(object_size=256, local_memory=1024, heap_size=16384))
    return compiler, runtime, build_mg_kernel(256), TrackFMProgram


def test_no_wrapper_outside_the_traced_run():
    compiler, runtime, module, program_cls = _small_program()
    originals = {(id(o), a): getattr(o, a) for o, a, _s in global_boundaries()}
    assert leftover_wrappers([compiler, runtime]) == []

    recorder = SpanRecorder()
    with LayerTracer(recorder) as tracer:
        tracer.instrument(compiler)
        compiled = compiler.compile(module)
        program = program_cls(compiled.module, runtime)
        tracer.instrument(program)
        assert leftover_wrappers(tracer.owners)  # installed while tracing
        result = program.run("main")
        owners = list(tracer.owners)

    assert leftover_wrappers(owners) == []
    for owner, attr, _span in global_boundaries():
        assert getattr(owner, attr) is originals[(id(owner), attr)]
    for obj in (compiler, program, runtime, runtime.guards, runtime.pool):
        assert not any(callable(v) and hasattr(v, "__perfbench_span__") for v in vars(obj).values())

    summary = recorder.summary()
    assert summary["sim.interpreter.run"]["calls"] == 1
    assert summary["compiler.compile"]["calls"] == 1
    assert any(name.startswith("compiler.pass.") for name in summary)
    m = runtime.metrics
    guard_counters = sum(
        m.guards.get(k, 0) for k in m.guards if k.name in ("FAST", "SLOW", "LOCALITY", "CUSTODY_MISS")
    )
    assert summary["trackfm.guard"]["calls"] == guard_counters
    fetch = summary.get("net.fetch", {"calls": 0, "raised": 0})
    assert fetch["calls"] - fetch["raised"] == m.remote_fetches
    assert result.steps == program.interp.steps


def test_every_span_name_maps_to_a_layer():
    for layer, rows in LAYERS.items():
        for span, _owner, _attr in rows:
            assert layer_of(span.replace("<", "").replace(">", "")) == layer
    assert layer_of("serve.replication.tick") == "serve.replication"
    assert layer_of("compiler.pass.O1") == "compiler"


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == core.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == core.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == [
        "nas_far", "serve_r1", "serve_r3_chaos", "paper_figs",
    ]
