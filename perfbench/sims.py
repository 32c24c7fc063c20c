"""The two simulator workloads: ``fig11-campaign`` and ``zoo-chaos``.

Each run times whole library calls — the same call a CLI verb makes —
back to back until ``seconds`` have passed, and reports medians.  The
outputs are checked outside the timed region against an independent
path; every call must also reproduce the first call's outputs bit for
bit (same seed, same numbers).
"""

from __future__ import annotations

import hashlib
import random
import time
from statistics import median
from dataclasses import dataclass
from typing import Any, Callable

from .common import Outcome, peak_rss_mb, time_imports
from .instrument import instrument
from .metrics import layer_metrics
from .spans import Tracer
from .speed import SpeedProbe, normalise


@dataclass(frozen=True)
class Fig11Size:
    """The paper's Figure 11 shape: 84 curve points (3 popularity
    cases x 2 strategies x EFT-Min/Max x their load grids)."""

    m: int = 15
    k: int = 3
    n: int = 10_000
    repeats: int = 1
    #: (unit, repeat) pairs re-run through the analytic EFT per run.
    check_samples: int = 4


@dataclass(frozen=True)
class ZooSize:
    m: int = 50
    n: int = 20_000
    loads: tuple[float, ...] = (0.7, 0.9)


@dataclass
class SimWorkload:
    """A library call plus what the benchmark needs to judge it."""

    name: str
    modules: tuple[str, ...]
    call: Callable[[int], Any]
    #: simulated tasks in one call's output
    tasks: Callable[[Any], int]
    #: one ``(op, value)`` pair per checked operation of a call
    ops: Callable[[Any], list[tuple[str, Any]]]
    #: ops whose output fails the independent check
    check: Callable[[Any, int], set[str]]


def _float_key(x: float) -> str:
    return float(x).hex()


# -- fig11-campaign -----------------------------------------------------------


def fig11_workload(size: Fig11Size = Fig11Size()) -> SimWorkload:
    def call(seed: int):
        from repro.experiments import fig11

        return fig11.run(
            m=size.m, k=size.k, n=size.n, repeats=size.repeats, rng_seed=seed, n_jobs=1, cache=None
        )

    def ops(result) -> list[tuple[str, Any]]:
        return [
            (
                f"{p.case}/{p.strategy}/{p.heuristic}/{p.load_percent:g}",
                tuple(_float_key(f) for f in p.fmax_runs),
            )
            for p in result.points
        ]

    def check(result, seed: int) -> set[str]:
        """Re-run a seeded sample of (unit, repeat) pairs through the
        analytic dict-based ``eft_schedule`` and require bit-equal Fmax."""
        import numpy as np

        from repro.core.eft import eft_schedule
        from repro.experiments.fig11 import build_campaign
        from repro.simulation.popularity import MachinePopularity
        from repro.simulation.workload import WorkloadSpec, generate_workload

        spec, _ = build_campaign(m=size.m, k=size.k, n=size.n, repeats=size.repeats, rng_seed=seed)
        names = [name for name, _ in ops(result)]
        bad = {name for name, p in zip(names, result.points) if len(p.fmax_runs) != size.repeats}
        if len(spec.units) != len(result.points):
            return set(names)
        rng = random.Random(seed)
        picks = rng.sample(range(len(spec.units)), min(size.check_samples, len(spec.units)))
        for i in picks:
            unit, point = spec.units[i], result.points[i]
            params = unit.params
            rep = rng.randrange(size.repeats)
            load = int(params["load"])
            pop = MachinePopularity(
                weights=np.asarray(params["pop_weights"][rep], dtype=float),
                case=str(params["case"]),
                s=float(params["s"]),
            )
            wspec = WorkloadSpec(
                m=size.m,
                n=size.n,
                lam=load / 100.0 * size.m,
                k=size.k,
                strategy=str(params["strategy"]),
                case=str(params["case"]),
                s=float(params["s"]),
            )
            inst = generate_workload(
                wspec, rng=np.random.default_rng(unit.seed + 1000 * rep + load), popularity=pop
            )
            want = eft_schedule(inst, tiebreak=str(params["heuristic"])).max_flow
            if _float_key(want) != _float_key(point.fmax_runs[rep]):
                bad.add(names[i])
        return bad

    return SimWorkload(
        name="fig11-campaign",
        modules=("repro.experiments.fig11",),
        call=call,
        tasks=lambda r: len(r.points) * r.repeats * r.n,
        ops=ops,
        check=check,
    )


# -- zoo-chaos ----------------------------------------------------------------


def zoo_workload(size: ZooSize = ZooSize()) -> SimWorkload:
    def call(seed: int):
        from repro.schedulers.compare import CompareConfig, run_compare

        return run_compare(CompareConfig(m=size.m, n=size.n, loads=size.loads, seed=seed))

    def ops(out) -> list[tuple[str, Any]]:
        rows = [
            (
                f"{r['load']:g}/{r['policy']}",
                tuple(
                    _float_key(r[k]) if isinstance(r[k], float) else r[k]
                    for k in sorted(r)
                    if k not in ("policy", "load")
                ),
            )
            for r in out["rows"]
        ]
        sanity = out["sanity"]
        return rows + [
            ("sanity", (_float_key(sanity["srpt_mean_flow"]), _float_key(sanity["eft_mean_flow"])))
        ]

    def check(out, seed: int) -> set[str]:
        """Every cell completes all n tasks; the SRPT <= EFT sanity
        line reads OK."""
        bad = {
            f"{r['load']:g}/{r['policy']}" for r in out["rows"] if r["n_completed"] != size.n
        }
        if len(out["rows"]) != 4 * len(size.loads):
            bad.add("grid")
        if not (out["sanity"]["ok"] and out["text"].rstrip().endswith(": OK")):
            bad.add("sanity")
        return bad

    return SimWorkload(
        name="zoo-chaos",
        modules=("repro.schedulers.compare",),
        call=call,
        tasks=lambda out: (len(out["rows"]) + 2) * size.n,
        ops=ops,
        check=check,
    )


# -- the measurement ------------------------------------------------------------


def digest(ops: list[tuple[str, Any]]) -> str:
    return hashlib.sha256(repr(ops).encode()).hexdigest()


@dataclass
class Call:
    """One timed library call: its output, wall and CPU seconds, and
    the machine's speed while it ran."""

    result: Any
    wall: float
    cpu: float
    probe: SpeedProbe

    @property
    def norm_wall(self) -> float:
        return normalise(self.wall, self.probe)


def _timed(workload: SimWorkload, seed: int) -> Call:
    with SpeedProbe() as probe:
        c0, t0 = time.process_time(), time.perf_counter()
        result = workload.call(seed)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return Call(result, wall, cpu, probe)


def traced_call(workload: SimWorkload, seed: int) -> tuple[Call, Tracer]:
    """One call with every simulator layer wrapped in spans.  The
    set-lowering cache starts cold, so its hit ratio repeats exactly."""
    from repro.core.vecengine import clear_set_cache, set_cache_info

    tracer = Tracer(run_id=f"{workload.name}-{seed}")
    clear_set_cache()
    with instrument(tracer):
        call = _timed(workload, seed)
    info = set_cache_info()
    tracer.count("vecengine.set_cache_hits", info.hits)
    tracer.count("vecengine.set_cache_misses", info.misses)
    return call, tracer


def measure(workload: SimWorkload, seed: int, seconds: float, trace: bool) -> Outcome:
    """One benchmark run of a simulator workload.

    Times calls back to back for ``seconds`` (at least one); timings are
    normalised to the nominal machine speed (:mod:`perfbench.speed`)
    and reported as medians over the calls.
    """
    out = Outcome(workload.name)
    setup = time_imports(workload.modules)
    for module in workload.modules:
        __import__(module)

    calls: list[Call] = []
    t_end = time.perf_counter() + seconds
    while not calls or time.perf_counter() < t_end:
        calls.append(_timed(workload, seed))
    rss = peak_rss_mb()
    wall = median([c.norm_wall for c in calls])

    if trace:
        traced, tracer = traced_call(workload, seed)
        out.per_layer = layer_metrics(tracer)
        out.per_layer["machine.probe_us"] = traced.probe.mean * 1e6
        out.per_layer["trace.overhead_s"] = traced.norm_wall - wall
        out.per_layer["trace.overhead_ratio"] = traced.norm_wall / wall - 1.0
        out.tracer = tracer
        calls.append(traced)

    # Checks, outside the timed region.
    first_ops = workload.ops(calls[0].result)
    bad = workload.check(calls[0].result, seed)
    for call in calls[1:]:
        again = dict(workload.ops(call.result))
        bad |= {name for name, value in first_ops if again.get(name) != value}
    out.attempted = len(first_ops) * len(calls)
    out.failed = len(bad) * len(calls) if bad else 0
    out.checks["outputs pass the independent check and repeat across calls"] = not bad
    out.digests["outputs"] = digest(first_ops)

    tasks = workload.tasks(calls[0].result)
    timed = calls[:-1] if trace else calls
    raw_wall = median([c.wall for c in timed])
    out.end_to_end = {
        "throughput_per_s": tasks / wall,
        "peak_rss_mb": rss,
        "ok_ratio": out.ok_ratio,
        "setup_s": median([s for _, s in setup]),
    }
    out.report = {
        "sim_tasks_per_s": (tasks / wall, "1/s"),
        "sim_tasks_per_s_raw": (tasks / raw_wall, "1/s"),
        "call_wall_s": (wall, "s"),
        "call_wall_s_raw": (raw_wall, "s"),
        "cpu_us_per_task_raw": (median([c.cpu for c in timed]) / tasks * 1e6, "us"),
        "probe_us": (median([c.probe.mean for c in timed]) * 1e6, "us"),
        "calls": (len(timed), "count"),
        "tasks_per_call": (tasks, "count"),
        "setup_s_raw": (median([r for r, _ in setup]), "s"),
        "peak_rss_mb": (rss, "MB"),
        "error_ratio": (out.failed / out.attempted, "ratio"),
    }
    out.notes.append(
        "call walls (raw s): " + " ".join(f"{c.wall:.3f}" for c in timed)
        + "; probe means (us): " + " ".join(f"{c.probe.mean * 1e6:.0f}" for c in timed)
    )
    return out
