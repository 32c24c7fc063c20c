"""Multi-process sharded loopback: real throughput, same placements,
and — with chaos on — proof that nothing was lost.

The in-process router service (a
:class:`~repro.serve.frontend.ServeService` built with
``ServeConfig(shards=N)``) demonstrates the router frontend, but all N
shards share one event loop — it cannot show a throughput win.  This
module runs the sharded tier the way a deployment would: **one server process per shard**, each
a plain single-dispatcher service on its own unix socket, started and
stopped by a :class:`~repro.serve.supervisor.ShardSupervisor`, with the
:class:`~repro.serve.shard.plan.ShardPlan` applied *client side* (the
``route``-op pattern: fetch the plan once, route every submit locally).
One :func:`~repro.serve.driver.drive` per shard runs the per-shard
substreams concurrently; reports merge into one fleet
:class:`~repro.serve.driver.DriveReport` whose assignments are
reassembled in submission order — so on a disjoint plan with a
deterministic scheduler the merged ``assignments_digest`` is *equal*
to a single-server drive of the same workload (Theorem 6 composition,
checked by ``make shard-smoke``), while the achieved request rate
scales with the shard count once one server process saturates.

Given a :class:`~repro.chaos.ChaosConfig`, the same harness switches
the robustness stack on:

* every shard server journals to its own directory
  (:mod:`repro.serve.journal`), so a killed process is recoverable;
* the supervisor watches the shard processes and restarts any that
  die — including the one the harness deliberately SIGKILLs mid-drive
  (``kill_shard`` / ``kill_after``);
* every client connection runs through a seeded
  :class:`~repro.chaos.proxy.ChaosProxy` injecting drops, latency,
  corrupt/truncated frames and duplicate deliveries, which the drive's
  retries, dedupe keys and circuit breaker turn into counted retries.

Either way the result carries ``lost`` (submitted but never
acknowledged) and ``double_dispatched`` (server-side dispatch count in
excess of unique client-side dispatch acks).  A correct stack reports
zero for both, with the merged digest equal to an undisturbed run's
(``make chaos-smoke``).

Used by ``repro bench-serve --shards N [--chaos]`` and the throughput
benchmark.
"""

from __future__ import annotations

import asyncio
import dataclasses
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ...campaigns.spec import stable_seed
from ...chaos import ChaosConfig, ChaosProxy
from ...core.task import Instance, Task
from ..driver import DriveReport, drive
from ..supervisor import ShardSupervisor
from .plan import ShardPlan

__all__ = [
    "ShardBenchResult",
    "partition_instance",
    "plan_for_instance",
    "run_sharded_loopback_sync",
]


def plan_for_instance(instance: Instance, n_shards: int) -> ShardPlan:
    """The plan a sharded run of ``instance`` should use: a disjoint
    (zero cross-talk) cut of its processing-set family when one exists,
    else an even interval cover (straddling sets routed by fragment)."""
    if n_shards == 1:
        return ShardPlan.single(instance.m)
    try:
        return ShardPlan.for_family(instance.processing_sets(), instance.m, n_shards)
    except ValueError:
        return ShardPlan.even(instance.m, n_shards)


def partition_instance(instance: Instance, plan: ShardPlan) -> dict[int, Instance]:
    """Client-side routing: split ``instance`` into per-shard
    substreams, restricting straddling sets to their owner fragment
    (exactly what the router does server-side).  Shards with no tasks
    are omitted."""
    per: dict[int, list[Task]] = {}
    for task in instance:
        route = plan.route(task.eligible(instance.m))
        sub = task if route.is_local else task.restricted_to(route.owner_fragment)
        per.setdefault(route.owner, []).append(sub)
    return {
        sid: Instance(m=instance.m, tasks=tuple(tasks)) for sid, tasks in sorted(per.items())
    }


@dataclass
class ShardBenchResult:
    """Outcome of one fleet run: the merged report plus the loss /
    duplication accounting and every supervision counter; with chaos
    on, also the fault mix and the per-shard proxy fault counts."""

    report: DriveReport
    n_tasks: int
    lost: int
    double_dispatched: int | None
    chaos: dict[str, Any] | None = None
    killed_shards: list[int] = field(default_factory=list)
    recovery_seconds: list[float] = field(default_factory=list)
    restarts: dict[int, int] = field(default_factory=dict)
    proxy_stats: dict[int, dict[str, int]] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        totals: dict[str, int] = {}
        for stats in self.proxy_stats.values():
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + value
        return {
            "n_tasks": self.n_tasks,
            "lost": self.lost,
            "double_dispatched": self.double_dispatched,
            "killed_shards": self.killed_shards,
            "recovery_seconds": self.recovery_seconds,
            "restarts": {str(sid): n for sid, n in sorted(self.restarts.items())},
            "chaos": self.chaos,
            "faults": totals,
            "retries": self.report.n_retries,
            "reconnects": self.report.n_reconnects,
            "dup_acks": self.report.n_dup_acks,
            "elapsed": self.report.elapsed,
            "assignments_digest": self.report.assignments_digest,
        }

    def to_text(self) -> str:
        """The merged report, headed by the loss and recovery lines
        when chaos was on."""
        if self.chaos is None:
            return self.report.to_text()
        lines = [
            f"chaos bench: {self.n_tasks} tasks, "
            f"killed shards {self.killed_shards or 'none'}",
            f"lost: {self.lost}  double-dispatched: "
            + ("unknown" if self.double_dispatched is None else str(self.double_dispatched)),
        ]
        if self.recovery_seconds:
            mean = sum(self.recovery_seconds) / len(self.recovery_seconds)
            lines.append(
                f"recoveries: {len(self.recovery_seconds)} "
                f"(mean {mean:.3f} s, max {max(self.recovery_seconds):.3f} s)"
            )
        totals = self.to_json()["faults"]
        if totals.get("frames"):
            lines.append(
                "chaos faults: "
                + "  ".join(
                    f"{k} {totals[k]}"
                    for k in ("frames", "dropped", "truncated", "corrupted", "duplicated")
                    if k in totals
                )
            )
        lines.append(self.report.to_text())
        return "\n".join(lines)


async def _drive_fleet(
    parts: Mapping[int, Instance],
    supervisor: ShardSupervisor,
    tmp: Path,
    chaos: ChaosConfig | None,
    time_scale: float,
    kill_shard: int | None,
    kill_delay: float,
) -> tuple[list[DriveReport], dict[int, dict[str, int]], list[int]]:
    """One drive per shard, straight to its server or through a chaos
    proxy; with chaos, the supervisor restarts dead shards meanwhile."""
    sids = sorted(parts)
    proxies: dict[int, ChaosProxy] = {}
    endpoints = {sid: supervisor.socket_path(sid) for sid in sids}
    if chaos is not None:
        for sid in sids:
            endpoints[sid] = str(tmp / f"proxy{sid}.sock")
            # Decorrelate the fault streams across shards while keeping
            # the whole run a pure function of the one config seed.
            per_shard = dataclasses.replace(chaos, seed=stable_seed(chaos.seed, "shard", sid))
            proxies[sid] = ChaosProxy(
                per_shard,
                upstream_socket=supervisor.socket_path(sid),
                listen_socket=endpoints[sid],
            )
    killed: list[int] = []
    background: list[asyncio.Task] = []
    loop = asyncio.get_running_loop()
    try:
        for proxy in proxies.values():
            await proxy.start()
        if chaos is not None:
            background.append(loop.create_task(supervisor.watch()))

        async def killer() -> None:
            await asyncio.sleep(kill_delay)
            await asyncio.to_thread(supervisor.kill, kill_shard)
            killed.append(kill_shard)

        if kill_shard is not None:
            background.append(loop.create_task(killer()))
        reports = await asyncio.gather(
            *(
                drive(parts[sid], socket_path=endpoints[sid], time_scale=time_scale)
                for sid in sids
            )
        )
    finally:
        for task in background:
            task.cancel()
        await asyncio.gather(*background, return_exceptions=True)
        for proxy in proxies.values():
            await proxy.stop()
    return list(reports), {sid: proxy.stats() for sid, proxy in proxies.items()}, killed


def run_sharded_loopback_sync(
    instance: Instance,
    n_shards: int,
    scheduler: str = "eft-min",
    seed: int = 0,
    time_scale: float = 1.0,
    target_rate: float | None = None,
    plan: ShardPlan | None = None,
    chaos: ChaosConfig | None = None,
    kill_shard: int | None = None,
    kill_after: float = 0.5,
    journal_fsync: str = "commit",
) -> ShardBenchResult:
    """Drive ``instance`` against ``n_shards`` real server processes
    over unix-socket loopback and return the merged fleet result.

    Each shard process runs a plain single-dispatcher service (seeded
    ``seed + shard_id``, matching :class:`ShardRouter`); the plan is
    applied client side.  ``n_shards=1`` runs the identical machinery
    with one process — the fair baseline for throughput comparisons.

    With ``chaos``, the shards journal (``journal_fsync`` policy), the
    clients connect through chaos proxies, and shard ``kill_shard`` (if
    given) is SIGKILLed at ``kill_after`` (fraction of the workload's
    release span) into the drive and recovered by the supervisor.  The
    digest stays comparable to a clean run of the same workload —
    chaos and a crash must not change placements.
    """
    if plan is None:
        plan = plan_for_instance(instance, n_shards)
    if plan.m != instance.m:
        raise ValueError(f"instance has m={instance.m}, plan has m={plan.m}")
    if not 0.0 <= kill_after <= 1.0:
        raise ValueError(f"kill_after must be in [0, 1], got {kill_after}")
    parts = partition_instance(instance, plan)
    if kill_shard is not None:
        if chaos is None:
            raise ValueError("kill_shard needs chaos: only journalled shards recover")
        if kill_shard not in parts:
            raise ValueError(f"kill_shard={kill_shard} has no tasks (shards: {sorted(parts)})")
    order = [t.tid for t in instance]
    max_release = max((t.release for t in instance), default=0.0)
    kill_delay = kill_after * max_release * time_scale
    supervisor = ShardSupervisor()
    with tempfile.TemporaryDirectory(prefix="repro-serve-shard-") as tmpdir:
        tmp = Path(tmpdir)
        for sid in sorted(parts):
            config: dict[str, Any] = {
                "m": instance.m,
                "scheduler": scheduler,
                "seed": seed + sid,
                "time_scale": time_scale,
            }
            if chaos is not None:
                config["journal_dir"] = str(tmp / f"journal{sid}")
                config["journal_fsync"] = journal_fsync
            supervisor.add_shard(sid, config, tmp / f"shard{sid}.sock")
        try:
            supervisor.start_all()
            reports, proxy_stats, killed = asyncio.run(
                _drive_fleet(parts, supervisor, tmp, chaos, time_scale, kill_shard, kill_delay)
            )
        finally:
            supervisor.stop_all()
    report = DriveReport.merge(reports, order=order)
    report.target_rate = target_rate
    shard_stats = [r.server_stats for r in reports]
    if all(s is not None and "dispatched" in s for s in shard_stats):
        double_dispatched = sum(s["dispatched"] for s in shard_stats) - report.n_dispatched
    else:
        double_dispatched = None
    return ShardBenchResult(
        report=report,
        n_tasks=len(order),
        lost=len(order) - report.n_acked,
        double_dispatched=double_dispatched,
        chaos=None if chaos is None else chaos.to_json(),
        killed_shards=killed,
        recovery_seconds=list(supervisor.recovery_seconds),
        restarts=dict(supervisor.restarts),
        proxy_stats=proxy_stats,
    )
