"""Self-time arithmetic of the span recorder."""

from fmbench.spans import SpanRecorder


def test_self_time_subtracts_direct_children_only():
    rec = SpanRecorder()
    top = rec.add("serve.sim_loop", 0, 100, -1)
    req = rec.add("serve.request", 10, 70, top)
    svc = rec.add("serve.shard_service", 20, 60, req)
    rec.add("trackfm.access", 25, 45, svc)
    rec.add("serve.request", 80, 90, top)
    selfs = rec.self_times_ns()
    # 100 - (60 + 10), 60 - 40, 40 - 20, 20, 10
    assert selfs == [30, 20, 20, 20, 10]
    summary = rec.summary()
    assert summary["serve.request"]["calls"] == 2
    assert summary["serve.request"]["self_s"] == 30e-9
    assert summary["serve.request"]["total_s"] == 70e-9
    # Self times partition the top-level span exactly.
    assert sum(selfs) == 100


def test_wrapped_calls_nest_and_record_raises():
    rec = SpanRecorder()

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    wrapped_leaf = rec.wrap("net.fetch", leaf)

    def outer(xs):
        return [wrapped_leaf(x) for x in xs]

    wrapped_outer = rec.wrap("aifm.ensure_local", outer)
    assert wrapped_outer([1, 2]) == [1, 2]
    try:
        wrapped_outer([-1])
    except ValueError:
        pass
    assert list(rec.parent) == [-1, 0, 0, -1, 3]
    summary = rec.summary()
    assert summary["net.fetch"]["calls"] == 3
    assert summary["net.fetch"]["raised"] == 1
    assert summary["aifm.ensure_local"]["raised"] == 1
    selfs = rec.self_times_ns()
    assert all(s >= 0 for s in selfs)
    assert selfs[0] == (rec.end[0] - rec.start[0]) - sum(
        rec.end[i] - rec.start[i] for i in (1, 2)
    )
