"""Same seed, same outputs: digests and count metrics repeat exactly.

Runs the workloads' library calls at small sizes (the benchmark's own
sizes take seconds per call)."""

import pytest

from perfbench import serve, sims
from perfbench.metrics import layer_metrics

FIG11 = sims.Fig11Size(n=150, check_samples=3)
ZOO = sims.ZooSize(m=8, n=300)

FIG11_COUNTS = (
    "workload.gen_calls",
    "vecengine.decide_calls",
    "vecengine.set_cache_hit_ratio",
    "maxload.lp_solves",
    "runner.units",
)
ZOO_COUNTS = (
    "workload.gen_calls",
    "engine.reference_runs",
    "engine.array_runs",
    "engine.tasks_preempted",
    "engine.tasks_requeued",
    "schedulers.submit_calls.eft-min",
    "schedulers.submit_calls.srpt-ps",
    "schedulers.submit_calls.nc-setup",
    "schedulers.submit_calls.speed-eft",
)


def _twice(workload, seed):
    runs = []
    for _ in range(2):
        call, tracer = sims.traced_call(workload, seed)
        runs.append((sims.digest(workload.ops(call.result)), layer_metrics(tracer), call.result))
    return runs


@pytest.mark.parametrize(
    "workload, counts",
    [(sims.fig11_workload(FIG11), FIG11_COUNTS), (sims.zoo_workload(ZOO), ZOO_COUNTS)],
    ids=["fig11-campaign", "zoo-chaos"],
)
def test_same_seed_same_digest_and_counts(workload, counts):
    (d1, m1, r1), (d2, m2, _) = _twice(workload, seed=5)
    assert d1 == d2
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}
    assert all(m1[k] > 0 for k in counts)
    assert workload.check(r1, 5) == set()
    other, _ = sims.traced_call(workload, 6)
    assert sims.digest(workload.ops(other.result)) != d1


def test_fig11_layers_bypass_the_engine():
    (_, metrics, _), _ = _twice(sims.fig11_workload(FIG11), seed=2)
    assert metrics["engine.reference_runs"] == 0
    assert metrics["schedulers.submit_calls.srpt-ps"] == 0
    assert metrics["vecengine.decide_calls"] == metrics["runner.units"]


def test_fig11_check_catches_a_wrong_fmax():
    workload = sims.fig11_workload(FIG11)
    result = sims.traced_call(workload, 3)[0].result
    point = result.points[0]
    result.points[0] = type(point)(**{**point.__dict__, "fmax_runs": (point.fmax_runs[0] + 1.0,)})
    sized = sims.fig11_workload(sims.Fig11Size(n=FIG11.n, check_samples=len(result.points)))
    assert sized.check(result, 3) == {sized.ops(result)[0][0]}


def test_serve_misplaced_and_missing_acks_count_as_failed():
    from perfbench.common import Outcome

    def step(pairs, n_bad):
        drive = {"n_bad": n_bad, "assignments": [list(p) for p in pairs]}  # as JSON gives them
        return serve.Step(400, 60, 0.1, 1.0, 1.0, drive)

    pairs = serve.analytic_pairs(60, seed=4)
    clean = Outcome("serve-durable")
    serve.check_steps(clean, [step(pairs, 0)], seed=4)
    assert (clean.attempted, clean.failed, clean.ok_ratio, clean.correct) == (60, 0, 1.0, True)

    tid, machine = pairs[7]
    pairs[7] = (tid, (machine + 1) % 8)
    bad = Outcome("serve-durable")
    serve.check_steps(bad, [step(pairs[:-1], 1)], seed=4)
    assert (bad.attempted, bad.failed) == (60, 2)
    assert bad.ok_ratio < 1 and not bad.correct


def test_serve_replay_repeats(tmp_path):
    from perfbench.client import drive_instance
    from perfbench.spans import Tracer

    tasks = list(drive_instance(120, seed=4))
    a = serve.replay(tasks, tmp_path / "a")
    tracer = Tracer("t")
    b = serve.replay(tasks, tmp_path / "b", call=tracer.call)
    assert a["machines"] == b["machines"]
    assert a["bytes_per_req"] == b["bytes_per_req"] > 0
    digest = serve.assignments_digest(zip((t.tid for t in tasks), a["machines"]))
    assert digest == serve.analytic_digest(120, 4)
    metrics = layer_metrics(tracer)
    assert metrics["serve.replay_requests"] == 120
    assert metrics["trace.spans"] == 120 * 8
    assert metrics["journal.commit_us"] > 0 and metrics["dispatcher.submit_us"] > 0
