"""The reference oracles agree with the program on small inputs."""

from fmbench import oracles
from fmbench.serving import Serving


def test_serving_model_has_no_mismatches_on_fault_free_r1(monkeypatch):
    from fmbench import serving

    monkeypatch.setattr(serving, "CLIENTS", 40)
    monkeypatch.setattr(serving, "REQUESTS_PER_CLIENT", 25)
    monkeypatch.setattr(serving, "N_KEYS", 512)
    workload = Serving("serve_r1", replication=1, chaos=False)
    state = workload.setup(seed=7)
    outcome = workload.run(state)
    ev = workload.evaluate(state, outcome, None)
    assert ev.errors == []
    assert ev.attempted == 1000
    assert ev.failed == 0
    assert ev.detail["value_mismatches"] == 0
    assert ev.detail["final_value_mismatches"] == 0
    # The response tap is gone after the run.
    assert "serve" not in vars(state.simulation.cluster)


def test_serving_model_flags_a_wrong_response():
    keys, writes = [3, 3, 3], [False, True, False]
    first = oracles.initial_value(3)
    second = oracles.written_value(3, first)
    good = [(first, False), (second, False), (second, False)]
    assert oracles.check_responses(keys, writes, good)["failed"] == 0
    stale = [(first, False), (second, False), (first, False)]
    counts = oracles.check_responses(keys, writes, stale)
    assert counts["failed"] == counts["stale_reads"] == 1


def test_model_values_match_the_cluster_value_functions():
    from repro.serve.cluster import default_value, next_value

    for key in (0, 1, 77, 16383):
        assert oracles.initial_value(key) == default_value(key)
        assert oracles.written_value(key, 12345) == next_value(key, 12345)


def test_reseeded_nas_kernels_match_their_references(monkeypatch):
    from fmbench import nas_far

    small = {
        "CG": ("build_cg_kernel", (64, 4), (1, 2, 3), 64 * 4 * 16 + 64 * 8),
        "IS": ("build_is_kernel", (256, 32), (7,), 256 * 8 + 32 * 8),
        "MG": ("build_mg_kernel", (256,), (11,), 2 * 256 * 8),
        "SP": ("build_sp_kernel", (256,), (13,), 256 * 8),
        "FT": ("build_ft_kernel", (16, 16), (17,), 16 * 16 * 8),
    }
    monkeypatch.setattr(nas_far, "KERNELS", small)
    workload = nas_far.NasFar()
    values = {}
    for seed in (1, 2):
        state = workload.setup(seed)
        refs = workload.references(state)
        ev = workload.evaluate(state, workload.run(state), refs)
        assert ev.errors == [] and ev.failed == 0
        values[seed] = refs
    # The seed reaches the kernels' data.
    assert values[1] != values[2]
