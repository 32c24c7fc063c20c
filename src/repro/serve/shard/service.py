"""The sharded asyncio tier: router frontend over N dispatcher shards.

:class:`ShardServeService` is the real-time enactment of a
:class:`~repro.serve.shard.router.ShardRouter`, the sharded analogue of
:class:`repro.serve.frontend.ServeService`, and shares its real-time
half (:class:`~repro.serve.frontend.LiveService`): one
:class:`~repro.serve.lanes.MachineLanes` FIFO lane per *global*
machine serves each dispatched request for ``proc * time_scale`` wall
seconds on an event-loop timer, and the frame connection, fault replay
and server loop are the single service's.  The frontend speaks the
same length-prefixed JSON protocol as the single-dispatcher service —
every existing client and driver works unchanged — plus these
router-only ops:

``{"op": "route"}``
    answered with the shard plan (``ShardPlan.to_json`` payload), so a
    smart client can route submits shard-side without a round trip per
    request (:mod:`repro.serve.shard.bench` does exactly this);
``{"op": "kill", "machine": j}`` / ``{"op": "revive", "machine": j}``
    live fault injection *through the router*: the kill drains the
    machine's queue and re-places the displaced work fleet-wide with
    the cross-shard handoff rule; the revive re-places router-parked
    requests.
``{"op": "detach-shard", "shard": s}`` / ``{"op": "reattach-shard", "shard": s}``
    the supervision surface (:mod:`repro.serve.supervisor`): detach
    marks a whole shard's process dead — routing degrades to the
    cross-shard failure rule or parks — and reattach rejoins it after
    recovery, re-placing anything parked in the interim.

The division of labour matches the single-dispatcher tier: *which
shard and machine* a request lands on is the router's virtual-clocked
decision (pure function of release stamps); the asyncio layer only
controls when the work physically runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ...faults.schedule import FaultSchedule
from ...obs.recorders import MetricsRegistry
from ..dispatcher import DISPATCHED, REQUEUED
from ..frontend import LiveService, run_service
from ..lanes import MachineLanes
from ..protocol import ProtocolError, task_from_wire
from .plan import ShardPlan
from .router import RoutedDecision, ShardRouter

__all__ = ["ShardServeConfig", "ShardServeService", "build_sharded_service", "serve_sharded"]


@dataclass(frozen=True)
class ShardServeConfig:
    """Construction parameters of a sharded dispatch service.

    The plan comes from ``intervals`` when given (explicit 1-based
    inclusive shard intervals), else from :meth:`ShardPlan.aligned`
    when ``align_k`` is set (disjoint-replication-aligned boundaries,
    zero cross-talk), else :meth:`ShardPlan.even`.  The remaining knobs
    mirror :class:`repro.serve.frontend.ServeConfig`; ``slo`` and
    ``max_queue_depth`` configure *shard-local* admission.
    """

    m: int = 4
    shards: int = 1
    scheduler: str = "eft-min"
    seed: int = 0
    align_k: int | None = None
    intervals: tuple[tuple[int, int], ...] | None = None
    slo: float | None = None
    max_queue_depth: int | None = None
    time_scale: float = 1.0
    on_unavailable: str = "park"
    snapshot_path: str | None = None
    snapshot_every: float = 1.0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("need at least one machine")
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be > 0")
        if self.snapshot_every <= 0:
            raise ValueError("snapshot_every must be > 0")

    def make_plan(self) -> ShardPlan:
        if self.intervals is not None:
            return ShardPlan(m=self.m, intervals=tuple(self.intervals))
        if self.align_k is not None:
            return ShardPlan.aligned(self.m, self.align_k, self.shards)
        return ShardPlan.even(self.m, self.shards)


def build_sharded_service(config: ShardServeConfig) -> "ShardServeService":
    """Wire a :class:`ShardServeService` from a :class:`ShardServeConfig`."""
    router = ShardRouter(
        config.make_plan(),
        scheduler=config.scheduler,
        seed=config.seed,
        slo=config.slo,
        max_queue_depth=config.max_queue_depth,
        on_unavailable=config.on_unavailable,
    )
    return ShardServeService(router, time_scale=config.time_scale)


class ShardServeService(LiveService):
    """Real-time enactment of a :class:`ShardRouter`.

    Must be :meth:`start`-ed inside a running event loop; :meth:`stop`
    cancels the in-flight timers.  ``time_scale`` converts virtual time
    units to wall seconds.
    """

    snapshot_source = "repro-serve-sharded"

    def __init__(self, router: ShardRouter, time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be > 0")
        self.router = router
        self.time_scale = time_scale
        self.m = router.m
        self.n_errors = 0
        self.lanes = MachineLanes(
            self.m,
            time_scale,
            alive=self._alive,
            on_complete=self._on_complete,
            on_displaced=self._route_displaced,
        )

    # -- request path --------------------------------------------------------
    def submit(self, task) -> RoutedDecision:
        """Route, decide and, if dispatched, enqueue for real-time
        service on the placed machine's lane."""
        routed = self.router.submit(task)
        if routed.status in (DISPATCHED, REQUEUED):
            self.lanes.push(routed.machine, routed.decision.task)
        return routed

    def _alive(self, machine: int) -> bool:
        sid = self.router.plan.shard_of(machine)
        return machine in self.router.dispatchers[sid].alive

    def _on_complete(self, machine: int, task, wall_flow: float) -> None:
        sid = self.router.plan.shard_of(machine)
        self.router.shard_metrics[sid].on_complete(wall_flow)

    def _route_displaced(self, task, arrival: float) -> None:
        routed = self.router.redispatch(task, self.now())
        if routed.status == REQUEUED:
            self.lanes.push(routed.machine, task, arrival)
        # parked at the router: re-enters the lanes at the next revive

    def _push_replaced(self, replaced: list[RoutedDecision]) -> int:
        for routed in replaced:
            if routed.status == REQUEUED:
                self.lanes.push(routed.machine, routed.decision.task)
        return len(replaced)

    # -- fault surface -------------------------------------------------------
    def kill(self, machine: int) -> int:
        """Stop ``machine`` through the router: no further dispatches,
        its queued requests re-placed fleet-wide (cross-shard handoff
        when the home shard is out).  Returns how many were displaced."""
        self.router.kill(machine)
        return self.lanes.kill(machine)

    def revive(self, machine: int) -> int:
        """Revive ``machine`` through the router and enqueue any
        re-placed router-parked requests; returns how many left the
        parking lot."""
        return self._push_replaced(self.router.revive(machine, self.now()))

    # -- supervision surface -------------------------------------------------
    def detach_shard(self, sid: int) -> None:
        """Mark shard ``sid`` down at the router (its process died);
        idempotent — see :meth:`ShardRouter.detach_shard`."""
        self.router.detach_shard(sid)

    def reattach_shard(self, sid: int) -> int:
        """Rejoin shard ``sid`` at the router and enqueue any re-placed
        router-parked requests; returns how many left the parking
        lot."""
        return self._push_replaced(self.router.reattach_shard(sid, now=self.now()))

    # -- introspection -------------------------------------------------------
    def registry(self) -> MetricsRegistry:
        return self.router.fleet_registry()

    def stats(self) -> dict[str, Any]:
        """Router + per-shard counters plus the fleet metrics rollup
        (the ``stats`` op payload)."""
        stats = self.router.stats()
        stats.update(
            {
                "now": self.now(),
                "completed": self.n_completed,
                "outstanding": self.lanes.outstanding,
                "errors": self.n_errors,
                "metrics": self.router.fleet_registry().snapshot(),
            }
        )
        return stats

    # -- frontend ------------------------------------------------------------
    def on_error(self) -> None:
        self.n_errors += 1

    def _pong(self) -> dict[str, Any]:
        return {**super()._pong(), "shards": self.router.n_shards}

    def _submit_op(self, message: dict[str, Any]) -> dict[str, Any]:
        try:
            routed = self.submit(task_from_wire(message))
        except (ProtocolError, ValueError) as exc:
            return self._submit_error(message, exc)
        response = self._submit_response(routed.decision)
        response["shard"] = routed.shard
        response["handoff"] = routed.handoff
        return response

    #: router-only ops: op -> (argument field, method, response field);
    #: a ``None`` response field answers with the down-shard list.
    _ADMIN_OPS = {
        "kill": ("machine", "kill", "displaced"),
        "revive": ("machine", "revive", "unparked"),
        "detach-shard": ("shard", "detach_shard", None),
        "reattach-shard": ("shard", "reattach_shard", "unparked"),
    }

    def _admin_op(self, op: Any, message: dict[str, Any]) -> dict[str, Any] | None:
        if op == "route":
            return {"ok": True, "op": "route", "plan": self.router.plan.to_json()}
        if op not in self._ADMIN_OPS:
            return None
        field, method, answer = self._ADMIN_OPS[op]
        try:
            result = getattr(self, method)(int(message[field]))
        except (KeyError, TypeError, ValueError) as exc:
            self.on_error()
            return {"ok": False, "op": op, "error": str(exc)}
        if answer is None:
            return {"ok": True, "op": op, "down": sorted(self.router.down_shards)}
        return {"ok": True, "op": op, answer: result}


async def serve_sharded(
    config: ShardServeConfig,
    socket_path: str | Path | None = None,
    host: str | None = None,
    port: int | None = None,
    faults: FaultSchedule | None = None,
) -> dict[str, Any]:
    """Run a sharded dispatch service until a client sends ``shutdown``
    (or the task is cancelled); returns the final stats.

    Exactly one endpoint must be given: a unix ``socket_path`` or a TCP
    ``host``/``port`` pair.
    """
    if (socket_path is None) == (host is None or port is None):
        raise ValueError("serve_sharded needs exactly one of socket_path or host+port")
    return await run_service(
        build_sharded_service(config), config, socket_path, host, port, faults
    )
