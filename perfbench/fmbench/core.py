"""The measurement protocol shared by every workload.

A run imports the program, makes one warm-up pass, then repeats
``setup`` + timed pass until the timed passes add up to ``--seconds``
(at least :data:`MIN_PASSES`).  Every pass is checked against the
workload's oracle and must reproduce the warm-up pass's simulated
results exactly.  Host timings are reported as medians over passes.

The traced run makes one untraced and one traced pass after the
warm-up.  The traced pass runs with every layer boundary wrapped
(:mod:`fmbench.layers`); the wrappers are removed before anything is
reported, the simulated results of both passes must agree, and the span
counts must agree with the program's own counters.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from fmbench import host

MIN_PASSES = 3

#: End-to-end metrics: name -> unit.  Mirrored by BENCHMARK.json.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accesses_per_s": "1/s",
    "requests_per_s": "1/s",
    "sim_cycles_geomean": "cycles",
    "sim_bytes_moved": "B",
    "sim_p50_cycles": "cycles",
    "sim_p99_cycles": "cycles",
}

#: The default compiler pipeline's top-level passes.
COMPILER_PASSES = (
    "O1", "runtime-init", "guard-analysis", "chunk-analysis",
    "chunk-transform", "chase-prefetch", "guard-transform", "libc-transform",
)
#: Every intrinsic ``TrackFMProgram`` registers.
INTRINSICS = (
    "tfm_runtime_init", "tfm_malloc", "tfm_malloc_pinned", "tfm_calloc",
    "tfm_realloc", "tfm_free", "tfm_guard_read", "tfm_guard_write",
    "tfm_chunk_begin", "tfm_chunk_deref", "tfm_chunk_deref_write",
    "tfm_chunk_end", "tfm_prefetch_sched", "tfm_chase_deref",
    "tfm_chase_deref_write", "tfm_offload_reduce",
)
#: The paper experiments ``paper_figs`` runs (not the legacy ``ablation_*``).
PAPER_EXPERIMENTS = (
    "table1", "table2", "table4",
    "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
    "fig13", "fig14", "fig15", "fig16", "fig17a", "fig17b",
    "compile_costs",
)


def _per_layer_units() -> Dict[str, str]:
    units = {"compiler.self_s": "s"}
    units.update({f"compiler.pass.{p}.s": "s" for p in COMPILER_PASSES})
    units.update({
        "compiler.guards_inserted": "count",
        "compiler.accesses_chunked": "count",
        "compiler.insts_after": "count",
        "sim.decode.self_s": "s",
        "sim.interpreter.self_s": "s",
        "sim.interpreter.steps": "count",
        "sim.interpreter.ns_per_step": "ns",
        "sim.irrun.calls": "count",
        "sim.irrun.self_s": "s",
    })
    units.update({f"sim.irrun.{name}.calls": "count" for name in INTRINSICS})
    units.update({
        "trackfm.guard.calls": "count",
        "trackfm.guard.self_s": "s",
        "trackfm.guard.fast_frac": "ratio",
        "trackfm.chunk.calls": "count",
        "trackfm.chunk.self_s": "s",
        "trackfm.access.calls": "count",
        "trackfm.access.self_s": "s",
        "aifm.self_s": "s",
        "aifm.ensure_local.calls": "count",
        "aifm.evictions": "count",
        "aifm.expel.calls": "count",
        "aifm.prefetch.issued": "count",
        "aifm.prefetch.useful_frac": "ratio",
        "net.calls": "count",
        "net.self_s": "s",
        "net.bytes_fetched": "B",
        "net.retries": "count",
        "net.timeouts": "count",
        "net.drops": "count",
        "serve.schedule_s": "s",
        "serve.request.calls": "count",
        "serve.request.self_s": "s",
        "serve.shard_service.self_s": "s",
        "serve.sim_loop.self_s": "s",
        "serve.replication.self_s": "s",
        "serve.replication.ticks": "count",
        "serve.replication.read_repairs": "count",
        "serve.replication.promoted_keys": "count",
        "serve.replication.healed_stale_replicas": "count",
        "serve.replication.stale_reads": "count",
        "sim.che.calls": "count",
        "sim.che.self_s": "s",
        "fastswap.calls": "count",
        "fastswap.self_s": "s",
        "hybrid.calls": "count",
        "hybrid.self_s": "s",
    })
    units.update({f"bench.{name}.s": "s" for name in PAPER_EXPERIMENTS})
    units.update({"trace.overhead_frac": "ratio", "trace.unattributed_frac": "ratio"})
    return units


#: Per-layer metrics of the traced run: name -> unit.  Mirrored by BENCHMARK.json.
PER_LAYER = _per_layer_units()


@dataclass
class Evaluation:
    """What the oracle and the program's own counters say about one pass."""

    attempted: int
    failed: int
    #: Correctness failures that make the whole run incorrect.
    errors: List[str]
    #: Exact simulated results behind the ``sim_*`` and rate metrics.
    sim: Dict[str, object]
    #: Program counters behind the per-layer metrics.
    counters: Dict[str, object]
    detail: Dict[str, object] = field(default_factory=dict)
    #: The program's own counts that span counts must equal.
    cross: Dict[str, int] = field(default_factory=dict)


@dataclass
class Pass:
    """One set-up + timed pass, in host seconds, with the speed-probe
    loop times sampled during it (when a probe ran)."""

    setup_s: float
    wall_s: float
    cpu_s: float
    probe_samples: List[float] = field(default_factory=list)
    evaluation: Optional[Evaluation] = None
    outcome: object = None
    state: object = None

    @property
    def scale(self) -> float:
        """Reference probe time over this pass's median probe time."""
        return host.REFERENCE_PROBE_S / host.median(self.probe_samples)


def timed_pass(workload, seed: int, instrument=None, before_run=None,
               probe: Optional[host.SpeedProbe] = None) -> Pass:
    gc.collect()
    s0 = time.perf_counter()
    state = workload.setup(seed)
    setup_s = time.perf_counter() - s0
    if before_run is not None:
        before_run(state)
    gc.collect()
    with probe if probe is not None else contextlib.nullcontext():
        w0 = time.perf_counter()
        c0 = time.process_time()
        outcome = workload.run(state, instrument)
        cpu_s = time.process_time() - c0
        wall_s = time.perf_counter() - w0
    if probe is None:
        return Pass(setup_s, wall_s, cpu_s, outcome=outcome, state=state)
    return Pass(setup_s, wall_s - probe.spent_wall, cpu_s - probe.spent_cpu,
                list(probe.samples), outcome=outcome, state=state)


def evaluate(workload, p: Pass, references) -> Evaluation:
    p.evaluation = workload.evaluate(p.state, p.outcome, references)
    return p.evaluation


def end_to_end(passes: List[Pass], import_s: float) -> Dict[str, float]:
    """The end-to-end metrics of a run, from its timed passes; each pass's
    host times are multiplied by its speed scale."""
    sim = passes[0].evaluation.sim
    cpu = host.median([p.cpu_s * p.scale for p in passes])
    setup = import_s + host.median([p.setup_s for p in passes])
    return {
        "wall_s": host.median([p.wall_s * p.scale for p in passes]),
        "cpu_s": cpu,
        "setup_s": setup * host.median([p.scale for p in passes]),
        "peak_rss_mb": host.peak_rss_mb(),
        "accesses_per_s": sim["accesses"] / cpu,
        "requests_per_s": sim["requests"] / cpu,
        "sim_cycles_geomean": host.geomean(sim["cycles"]),
        "sim_bytes_moved": float(sim["bytes_moved"]),
        "sim_p50_cycles": float(sim["p50"]),
        "sim_p99_cycles": float(sim["p99"]),
    }


def sim_differences(a: Evaluation, b: Evaluation) -> List[str]:
    """Simulated results that differ between two passes of one seed."""
    out = []
    for label, x, y in (("sim", a.sim, b.sim), ("counters", a.counters, b.counters),
                        ("failed", a.failed, b.failed)):
        if x != y:
            out.append(label)
    return out


def measure(workload, seed: int, seconds: float) -> dict:
    """The untraced run: warm-up, then timed passes for ``seconds``."""
    t0 = time.perf_counter()
    workload.import_program()
    import_s = time.perf_counter() - t0

    probe = host.SpeedProbe()
    warm = timed_pass(workload, seed, probe=probe)
    references = workload.references(warm.state)
    first = evaluate(workload, warm, references)
    errors = list(first.errors)
    passes: List[Pass] = []
    measured = 0.0
    while measured < seconds or len(passes) < MIN_PASSES:
        p = timed_pass(workload, seed, probe=probe)
        ev = evaluate(workload, p, references)
        errors.extend(ev.errors)
        diffs = sim_differences(first, ev)
        if diffs:
            errors.append(f"pass {len(passes) + 1} is not deterministic: {diffs}")
        p.outcome = p.state = None
        passes.append(p)
        measured += p.wall_s
    metrics = end_to_end(passes, import_s)
    return {
        "correct": not errors,
        "errors": sorted(set(errors)),
        "attempted": first.attempted,
        "failed": first.failed,
        "metrics": metrics,
        "host_seconds": {
            "import_s": import_s,
            "passes": [
                {"setup_s": p.setup_s, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                 "probe_samples": len(p.probe_samples), "speed_scale": p.scale}
                for p in passes
            ],
            "quartiles": {
                key: host.quartiles([getattr(p, key) for p in passes])
                for key in ("wall_s", "cpu_s", "setup_s")
            },
        },
        "reference_probe_s": host.REFERENCE_PROBE_S,
        "bases": {
            "accesses_per_s": f"{first.sim['accesses']} simulated accesses per pass / median cpu_s",
            "requests_per_s": f"{first.sim['requests']} requests per pass / median cpu_s",
            "sim_cycles_geomean": f"geomean of {len(first.sim['cycles'])} values",
            "setup_s": "(program import, once + median per-pass setup) x median speed scale",
            "wall_s": "median over passes of wall time x the pass's speed scale",
            "cpu_s": "median over passes of CPU time x the pass's speed scale",
            "fail_rate": f"{first.failed} failed / {first.attempted} attempted",
        },
        "simulated": first.sim,
        "detail": first.detail,
    }


def measure_traced(workload, seed: int, run_dir) -> dict:
    """The traced run: untraced pass, traced pass, checks, per-layer split."""
    from fmbench.layers import LayerTracer, layer_of, leftover_wrappers
    from fmbench.spans import SpanRecorder

    workload.import_program()
    warm = timed_pass(workload, seed)
    references = workload.references(warm.state)
    evaluate(workload, warm, references)
    plain = timed_pass(workload, seed)
    ev_plain = evaluate(workload, plain, references)

    recorder = SpanRecorder()
    with LayerTracer(recorder) as tracer:
        def before_run(state):
            for obj in workload.instrumented_objects(state):
                tracer.instrument(obj)

        traced = timed_pass(workload, seed, instrument=tracer.instrument, before_run=before_run)
    leftovers = leftover_wrappers(tracer.owners)
    ev = evaluate(workload, traced, references)

    errors = list(ev_plain.errors) + list(ev.errors)
    if leftovers:
        errors.append(f"wrappers left installed: {leftovers}")
    diffs = sim_differences(ev_plain, ev)
    if diffs:
        errors.append(f"traced run changed simulated results: {diffs}")

    summary = recorder.summary()
    checks = cross_checks(summary, ev)
    errors.extend(
        f"cross-check {name}: spans {c['spans']} != program {c['program']}"
        for name, c in checks.items() if not c["ok"]
    )
    layer_self = {}
    for name, row in summary.items():
        layer = layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]
    per_layer, bases = per_layer_metrics(summary, layer_self, ev, plain, traced)

    spans_path = run_dir / f"{workload.name}-seed{seed}-spans.json.gz"
    chrome_path = run_dir / f"{workload.name}-seed{seed}-chrome.json.gz"
    recorder.write(str(spans_path), str(chrome_path))
    return {
        "correct": not errors,
        "errors": sorted(set(errors)),
        "attempted": ev.attempted,
        "failed": ev.failed,
        "metrics": per_layer,
        "bases": bases,
        "cross_checks": checks,
        "spans": {"count": len(recorder), "by_name": summary,
                  "files": [spans_path.name, chrome_path.name]},
        "untraced_pass": {"setup_s": plain.setup_s, "wall_s": plain.wall_s, "cpu_s": plain.cpu_s},
        "traced_pass": {"setup_s": traced.setup_s, "wall_s": traced.wall_s, "cpu_s": traced.cpu_s},
        "simulated": ev.sim,
        "detail": ev.detail,
    }


def cross_checks(summary, ev: Evaluation) -> Dict[str, dict]:
    """Span counts against the program's own counters (exact)."""
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    checks = {}
    cross = ev.cross
    if "guard_calls" in cross:
        checks["trackfm.guard.calls == Metrics guard counters"] = (
            calls("trackfm.guard"), cross["guard_calls"])
    if "remote_fetches" in cross:
        fetch = summary.get("net.fetch", {"calls": 0, "raised": 0})
        checks["returned net.fetch spans == Metrics.remote_fetches"] = (
            fetch["calls"] - fetch["raised"], cross["remote_fetches"])
    if "requests" in cross:
        checks["serve.request.calls == ServingReport.requests"] = (
            calls("serve.request"), cross["requests"])
    if "steps" in cross:
        checks["interpreter step counter == InterpResult.steps"] = (
            cross["interp_steps"], cross["steps"])
    if "experiments" in cross:
        checks["bench spans == experiments run"] = (
            sum(calls(f"bench.{n}") for n in PAPER_EXPERIMENTS), cross["experiments"])
    return {
        name: {"spans": spans, "program": program, "ok": spans == program}
        for name, (spans, program) in checks.items()
    }


def per_layer_metrics(summary, layer_self, ev: Evaluation, plain: Pass, traced: Pass):
    """The per-layer metrics of a traced run and the base of each ratio."""
    def row(name):
        return summary.get(name, {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0})

    def calls_with(prefix):
        return sum(r["calls"] for n, r in summary.items() if n.startswith(prefix))

    def frac(num, den):
        return num / den if den else 0.0

    c = ev.counters
    guards = c.get("guards", {})
    steps = c.get("steps", 0)
    m = {name: 0.0 for name in PER_LAYER}
    m["compiler.self_s"] = layer_self.get("compiler", 0.0)
    for p in COMPILER_PASSES:
        m[f"compiler.pass.{p}.s"] = row(f"compiler.pass.{p}")["total_s"]
    for key in ("guards_inserted", "accesses_chunked", "insts_after"):
        m[f"compiler.{key}"] = c.get(key, 0)
    m["sim.decode.self_s"] = layer_self.get("sim.decode", 0.0)
    m["sim.interpreter.self_s"] = layer_self.get("sim.interpreter", 0.0)
    m["sim.interpreter.steps"] = steps
    m["sim.interpreter.ns_per_step"] = frac(m["sim.interpreter.self_s"] * 1e9, steps)
    m["sim.irrun.calls"] = calls_with("sim.irrun.")
    m["sim.irrun.self_s"] = layer_self.get("sim.irrun", 0.0)
    for name in INTRINSICS:
        m[f"sim.irrun.{name}.calls"] = row(f"sim.irrun.{name}")["calls"]
    guard_calls = row("trackfm.guard")["calls"]
    m["trackfm.guard.calls"] = guard_calls
    m["trackfm.guard.self_s"] = row("trackfm.guard")["self_s"]
    m["trackfm.guard.fast_frac"] = frac(guards.get("FAST", 0), guard_calls)
    for part in ("chunk", "access"):
        m[f"trackfm.{part}.calls"] = row(f"trackfm.{part}")["calls"]
        m[f"trackfm.{part}.self_s"] = row(f"trackfm.{part}")["self_s"]
    m["aifm.self_s"] = layer_self.get("aifm", 0.0)
    m["aifm.ensure_local.calls"] = row("aifm.ensure_local")["calls"]
    m["aifm.evictions"] = c.get("evictions", 0)
    m["aifm.expel.calls"] = row("aifm.expel")["calls"]
    m["aifm.prefetch.issued"] = c.get("prefetches_issued", 0)
    m["aifm.prefetch.useful_frac"] = frac(c.get("prefetches_useful", 0), c.get("prefetches_issued", 0))
    m["net.calls"] = calls_with("net.")
    m["net.self_s"] = layer_self.get("net", 0.0)
    for key in ("bytes_fetched", "retries", "timeouts", "drops"):
        m[f"net.{key}"] = c.get(key, 0)
    m["serve.schedule_s"] = row("serve.schedule")["total_s"]
    m["serve.request.calls"] = row("serve.request")["calls"]
    m["serve.request.self_s"] = row("serve.request")["self_s"]
    m["serve.shard_service.self_s"] = row("serve.shard_service")["self_s"]
    m["serve.sim_loop.self_s"] = row("serve.sim_loop")["self_s"]
    m["serve.replication.self_s"] = layer_self.get("serve.replication", 0.0)
    m["serve.replication.ticks"] = row("serve.replication.tick")["calls"]
    for key in ("read_repairs", "promoted_keys", "healed_stale_replicas", "stale_reads"):
        m[f"serve.replication.{key}"] = c.get(key, 0)
    for layer in ("sim.che", "fastswap", "hybrid"):
        m[f"{layer}.calls"] = calls_with(layer + ".")
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    for name in PAPER_EXPERIMENTS:
        m[f"bench.{name}.s"] = row(f"bench.{name}")["total_s"]
    attributed = sum(v for k, v in layer_self.items()) - m["serve.schedule_s"]
    m["trace.overhead_frac"] = frac(traced.wall_s - plain.wall_s, plain.wall_s)
    m["trace.unattributed_frac"] = frac(traced.wall_s - attributed, traced.wall_s)
    bases = {
        "trackfm.guard.fast_frac": f"{guards.get('FAST', 0)} fast guards / {guard_calls} guard calls",
        "aifm.prefetch.useful_frac": (
            f"{c.get('prefetches_useful', 0)} useful / {c.get('prefetches_issued', 0)} issued"
        ),
        "sim.interpreter.ns_per_step": f"interpreter self time / {steps} steps",
        "trace.overhead_frac": (
            f"(traced {traced.wall_s:.4f} s - untraced {plain.wall_s:.4f} s) / untraced, one pass each"
        ),
        "trace.unattributed_frac": (
            f"(traced pass {traced.wall_s:.4f} s - {attributed:.4f} s of layer self time) / traced pass"
        ),
    }
    return m, bases
