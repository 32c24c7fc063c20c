"""The benchmark's metric catalogue and the per-layer arithmetic.

Every workload reports every metric of a kind: every end-to-end metric
with tracing off, every per-layer metric with tracing on.  A layer a
workload bypasses reads 0 — that is the prediction "no change" made
measurable.  ``BENCHMARK.json`` lists the same names (a test keeps the
two in step).
"""

from __future__ import annotations

from statistics import median

from .spans import Span, Tracer, self_times

#: Zoo policies of ``zoo-chaos`` (``CompareConfig`` defaults).
POLICIES = ("eft-min", "srpt-ps", "nc-setup", "speed-eft")

#: ``serve-durable``: the reference rate (requests per second, below
#: the knee) and the fixed rate ladder, steps 10% apart around it.
REF_RPS = 400
LADDER = tuple(round(REF_RPS * 1.1**i) for i in range(-3, 10))

#: (name, unit, better, bound).  Per workload:
#:   throughput_per_s  fig11/zoo: simulated tasks per second of the
#:                     library call (sim_tasks_per_s), its wall time
#:                     normalised to a nominal machine speed
#:                     (:mod:`perfbench.speed`); serve: requests per
#:                     second of server CPU at the reference rate
#:                     (1e6 / server_cpu_us_per_req).
#:   peak_rss_mb       VmHWM of the process doing the work (the server
#:                     process for serve).
#:   ok_ratio          1 - error_ratio: checked operations that passed.
#:   setup_s           process start to first timed call (imports,
#:                     normalised like throughput; for serve, spawning
#:                     the server until ``ping`` answers).
END_TO_END = (
    ("throughput_per_s", "1/s", "higher", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
)

_STAGE_NAMES = (
    ("protocol.decode", "decode"),
    ("protocol.from_wire", "from_wire"),
    ("journal.append", "append"),
    ("journal.commit", "commit"),
    ("dispatcher.submit", "submit"),
    ("protocol.encode", "encode"),
    ("journal.complete", "complete"),
)


def _per_layer_catalogue() -> tuple[tuple[str, str, str], ...]:
    rows = [
        ("workload.gen_s", "s", "lower"),
        ("workload.gen_calls", "count", "lower"),
        ("workload.gen_us_per_task", "us", "lower"),
        ("vecengine.lower_s", "s", "lower"),
        ("vecengine.decide_s", "s", "lower"),
        ("vecengine.decide_calls", "count", "lower"),
        ("vecengine.decide_p50_ms", "ms", "lower"),
        ("vecengine.decide_p99_ms", "ms", "lower"),
        ("vecengine.set_cache_hit_ratio", "ratio", "higher"),
        ("maxload.lp_s", "s", "lower"),
        ("maxload.lp_solves", "count", "lower"),
        ("runner.self_s", "s", "lower"),
        ("runner.units", "count", "lower"),
        ("runner.unit_p50_ms", "ms", "lower"),
        ("runner.unit_p99_ms", "ms", "lower"),
    ]
    for p in POLICIES:
        rows += [
            (f"engine.run_s.{p}", "s", "lower"),
            (f"engine.self_s.{p}", "s", "lower"),
            (f"schedulers.submit_s.{p}", "s", "lower"),
            (f"schedulers.submit_calls.{p}", "count", "lower"),
            (f"schedulers.submit_p50_us.{p}", "us", "lower"),
            (f"schedulers.submit_p99_us.{p}", "us", "lower"),
        ]
    rows += [
        ("engine.reference_runs", "count", "lower"),
        ("engine.array_runs", "count", "higher"),
        ("engine.tasks_preempted", "count", "lower"),
        ("engine.tasks_requeued", "count", "lower"),
        ("protocol.decode_us", "us", "lower"),
        ("protocol.decode_p99_us", "us", "lower"),
        ("protocol.from_wire_us", "us", "lower"),
        ("protocol.encode_us", "us", "lower"),
        ("protocol.encode_p99_us", "us", "lower"),
        ("dispatcher.submit_us", "us", "lower"),
        ("dispatcher.submit_p99_us", "us", "lower"),
        ("journal.append_us", "us", "lower"),
        ("journal.append_p99_us", "us", "lower"),
        ("journal.commit_us", "us", "lower"),
        ("journal.commit_p99_us", "us", "lower"),
        ("journal.complete_us", "us", "lower"),
        ("journal.bytes_per_req", "B", "lower"),
        ("serve.replay_requests", "count", "higher"),
        ("serve.replay_cpu_us_per_req", "us", "lower"),
        ("frontend.server_cpu_us_per_req", "us", "lower"),
        ("frontend.residual_us", "us", "lower"),
        ("dispatcher.est_flow_mean_units", "units", "lower"),
        ("frontend.flow_mean_units", "units", "lower"),
        ("frontend.flow_max_units", "units", "lower"),
        ("frontend.flow_inflation", "ratio", "lower"),
        ("frontend.max_rps_at_slo", "1/s", "higher"),
        ("driver.ack_p50_ms", "ms", "lower"),
        ("driver.ack_p99_ms", "ms", "lower"),
        ("driver.send_lag_p99_ms", "ms", "lower"),
        ("driver.invalid_steps", "count", "lower"),
    ]
    for r in LADDER:
        rows += [
            (f"ladder.{r}.flow_mean_units", "units", "lower"),
            (f"ladder.{r}.ack_p99_ms", "ms", "lower"),
        ]
    rows += [
        ("machine.probe_us", "us", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer_catalogue()


def _calls(durations: list[float], scale: float) -> tuple[float, float, float, int]:
    """(total seconds, median, p99 scaled, count) of per-call durations."""
    from repro.serve.driver import percentile

    if not durations:
        return 0.0, 0.0, 0.0, 0
    return (
        sum(durations),
        median(durations) * scale,
        percentile(durations, 0.99) * scale,
        len(durations),
    )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans and counts.

    Names missing from the trace (a bypassed layer) read 0.
    """
    spans: list[Span] = tracer.closed()
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    own = self_times(spans)

    def durs(name: str) -> list[float]:
        return [s.duration for s in by_name.get(name, ())]

    out = {name: 0.0 for name, _, _ in PER_LAYER}
    counts = tracer.counts

    gen_s, _, _, gen_n = _calls(durs("workload.gen"), 1.0)
    out["workload.gen_s"] = gen_s
    out["workload.gen_calls"] = gen_n
    if counts.get("workload.tasks"):
        out["workload.gen_us_per_task"] = gen_s / counts["workload.tasks"] * 1e6

    out["vecengine.lower_s"] = sum(durs("vecengine.lower"))
    total, p50, p99, n = _calls(durs("vecengine.decide"), 1e3)
    out["vecengine.decide_s"] = total
    out["vecengine.decide_calls"] = n
    out["vecengine.decide_p50_ms"] = p50
    out["vecengine.decide_p99_ms"] = p99
    lookups = counts.get("vecengine.set_cache_hits", 0) + counts.get("vecengine.set_cache_misses", 0)
    if lookups:
        out["vecengine.set_cache_hit_ratio"] = counts["vecengine.set_cache_hits"] / lookups

    out["maxload.lp_s"], _, _, out["maxload.lp_solves"] = _calls(durs("maxload.lp"), 1.0)
    out["runner.self_s"] = sum(own[s.sid] for s in by_name.get("runner.campaign", ()))
    _, out["runner.unit_p50_ms"], out["runner.unit_p99_ms"], out["runner.units"] = _calls(
        durs("runner.unit"), 1e3
    )

    for p in POLICIES:
        runs = by_name.get(f"engine.run.{p}", ())
        out[f"engine.run_s.{p}"] = sum(s.duration for s in runs)
        out[f"engine.self_s.{p}"] = sum(own[s.sid] for s in runs)
        total, p50, p99, n = _calls(durs(f"schedulers.submit.{p}"), 1e6)
        out[f"schedulers.submit_s.{p}"] = total
        out[f"schedulers.submit_calls.{p}"] = n
        out[f"schedulers.submit_p50_us.{p}"] = p50
        out[f"schedulers.submit_p99_us.{p}"] = p99
    for key in ("reference_runs", "array_runs", "tasks_preempted", "tasks_requeued"):
        out[f"engine.{key}"] = counts.get(f"engine.{key}", 0)

    for span_name, short in _STAGE_NAMES:
        _, p50, p99, _ = _calls(durs(span_name), 1e6)
        layer = span_name.split(".")[0]
        out[f"{layer}.{short}_us"] = p50
        if f"{layer}.{short}_p99_us" in out:
            out[f"{layer}.{short}_p99_us"] = p99
    out["serve.replay_requests"] = len(by_name.get("serve.request", ()))
    out["trace.spans"] = len(spans)
    return out
