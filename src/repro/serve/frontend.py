"""The asyncio serving layer: frontend, machine lanes, live faults.

:class:`ServeService` is the one live service.  It enacts the
virtual-clocked decisions of a decision core in real time — a
:class:`~repro.serve.dispatcher.Dispatcher`, or for
``ServeConfig(shards=N)`` with ``N > 1`` a
:class:`~repro.serve.shard.router.ShardRouter` over N dispatcher
shards (:func:`build_service` picks; both answer the same calls, and
on a disjoint plan they place identically, Theorem 6).  Each
dispatched request joins its machine's FIFO lane
(:class:`~repro.serve.lanes.MachineLanes`) and is "served" for
``proc * time_scale`` wall seconds by one event-loop timer — the
engine's run-to-completion machine model.  A
:class:`~repro.serve.protocol.FrameConnection` per client answers every
``submit`` with the dispatch decision from the socket's read callback
(the push model: only ``drain`` waits on service completion).

The division of labour is strict: *which machine gets a request* is
decided by the core from the request's virtual release stamp, so
assignments are reproducible run over run; the asyncio layer only
controls *when* the work physically happens, which is where wall-clock
jitter lives (and is measured, in the ``wall_flow`` histogram).

Fault injection: :meth:`ServeService.kill` stops a machine (its queued
requests are re-dispatched over the alive machines; the in-flight one
finishes — drain-on-failure semantics), :meth:`ServeService.revive`
brings it back and re-dispatches parked requests; both are also the
``kill`` / ``revive`` ops.  :meth:`ServeService.apply_faults` replays a
:class:`repro.faults.FaultSchedule` in scaled wall time, so the same
outage scenarios used in degraded-mode simulation drive the live
service.  Over a router the service also answers ``route`` (the shard
plan, for client-side routing), ``detach-shard`` and
``reattach-shard`` (the supervision surface: a detached shard's
submits take the cross-shard failure path or park until it rejoins).
"""

from __future__ import annotations

import asyncio
import errno
import socket as socket_module
import stat as stat_module
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Awaitable, Callable

from ..campaigns.trace import make_scheduler
from ..faults.schedule import FaultSchedule
from ..obs.recorders import MetricsRegistry
from ..obs.snapshot import write_metrics
from .admission import AdmissionController
from .dispatcher import DISPATCHED, REQUEUED, DispatchDecision, Dispatcher
from .journal import Journal, Recovery
from .lanes import MachineLanes
from .metrics import ServeMetrics
from .protocol import (
    FrameConnection,
    ProtocolError,
    check_version,
    task_from_wire,
    task_to_wire,
    version_error,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .shard.plan import ShardPlan
    from .shard.router import ShardRouter

__all__ = [
    "AddressInUseError",
    "ServeConfig",
    "ServeService",
    "build_service",
    "serve",
    "start_endpoint",
]

#: statuses that put a request on a machine lane.
_PLACED = (DISPATCHED, REQUEUED)


class AddressInUseError(OSError):
    """The requested socket path / TCP port is already bound.

    Raised instead of letting the raw :class:`OSError` escape as an
    asyncio traceback, so callers (and the CLI, which maps this to its
    own exit code) can tell "the operator pointed two services at one
    endpoint" apart from every other failure.
    """

    def __init__(self, endpoint: str, cause: OSError) -> None:
        super().__init__(cause.errno, f"address already in use: {endpoint}")
        self.endpoint = endpoint


async def start_endpoint(
    protocol_factory: Callable[[], asyncio.Protocol],
    socket_path: str | Path | None = None,
    host: str | None = None,
    port: int | None = None,
) -> asyncio.AbstractServer:
    """Bind the server endpoint for ``protocol_factory`` (one protocol
    instance per connection, e.g. :meth:`ServeService.connection`),
    translating EADDRINUSE into the typed :class:`AddressInUseError`.

    TCP binds surface EADDRINUSE on their own.  Unix sockets need a
    probe: asyncio *unlinks* an existing socket path before binding —
    it would silently steal the endpoint from a live service — so an
    existing path that still accepts connections is refused here, and
    only a stale one (dead server, connection refused) is rebound.
    """
    loop = asyncio.get_running_loop()
    try:
        if socket_path is not None:
            path = str(socket_path)
            if _unix_socket_active(path):
                raise AddressInUseError(path, OSError(errno.EADDRINUSE, "address in use"))
            return await loop.create_unix_server(protocol_factory, path=path)
        return await loop.create_server(protocol_factory, host=host, port=port)
    except AddressInUseError:
        raise
    except OSError as exc:
        if exc.errno == errno.EADDRINUSE:
            endpoint = str(socket_path) if socket_path is not None else f"{host}:{port}"
            raise AddressInUseError(endpoint, exc) from exc
        raise


def _unix_socket_active(path: str) -> bool:
    """Whether ``path`` is a unix socket with a live listener behind it."""
    try:
        if not stat_module.S_ISSOCK(Path(path).stat().st_mode):
            return False
    except OSError:
        return False
    probe = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
    try:
        probe.settimeout(1.0)
        probe.connect(path)
    except OSError:
        return False  # stale socket file: safe to rebind
    finally:
        probe.close()
    return True


@dataclass(frozen=True)
class ServeConfig:
    """Construction parameters of a dispatch service.

    ``time_scale`` is wall seconds per virtual time unit: a request
    with ``proc=0.01`` occupies its machine for ``0.01 * time_scale``
    wall seconds.  ``slo`` / ``max_queue_depth`` configure admission
    (``None`` disables each; shard-local with ``shards > 1``);
    ``snapshot_path`` + ``snapshot_every`` enable the periodic canonical
    metrics dump.

    ``shards > 1`` puts a :class:`~repro.serve.shard.router.ShardRouter`
    over that many dispatcher shards in place of the one dispatcher.
    The plan comes from ``intervals`` when given (explicit 1-based
    inclusive shard intervals, one per shard), else from
    :meth:`ShardPlan.aligned` when ``align_k`` is set
    (disjoint-replication-aligned boundaries, zero cross-talk), else
    :meth:`ShardPlan.even`.  Shard ``s`` seeds its scheduler with
    ``seed + s``.

    ``journal_dir`` enables the write-ahead journal
    (:mod:`repro.serve.journal`): every state transition is logged
    before it is acknowledged, and a service built over a directory
    that already holds a journal *recovers* — snapshot restore plus WAL
    replay — before accepting traffic.  ``journal_fsync`` picks the
    durability policy; ``journal_snapshot_every`` triggers a state
    snapshot + log compaction every N journal records (0 = never).  The
    journal covers one dispatcher, so it needs ``shards == 1``.
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
    journal_dir: str | None = None
    journal_fsync: str = "commit"
    journal_snapshot_every: int = 0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("need at least one machine")
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if self.intervals is not None and len(self.intervals) != self.shards:
            raise ValueError(
                f"intervals give {len(self.intervals)} shard(s), but shards={self.shards}"
            )
        if self.time_scale <= 0:
            raise ValueError("time_scale must be > 0")
        if self.snapshot_every <= 0:
            raise ValueError("snapshot_every must be > 0")
        if self.journal_snapshot_every < 0:
            raise ValueError("journal_snapshot_every must be >= 0")
        if self.journal_dir is not None and self.shards > 1:
            raise ValueError(
                f"the journal covers a single dispatcher; it cannot be used "
                f"with shards={self.shards}"
            )

    def make_plan(self) -> "ShardPlan":
        """The :class:`~repro.serve.shard.plan.ShardPlan` of ``shards``."""
        from .shard.plan import ShardPlan

        if self.intervals is not None:
            return ShardPlan(m=self.m, intervals=tuple(self.intervals))
        if self.align_k is not None:
            return ShardPlan.aligned(self.m, self.align_k, self.shards)
        return ShardPlan.even(self.m, self.shards)


def build_service(config: ServeConfig) -> "ServeService":
    """Wire a :class:`ServeService` from a :class:`ServeConfig`: the one
    place that picks the decision core.

    ``shards == 1`` builds a :class:`Dispatcher`; with ``journal_dir``
    set, an existing journal there is recovered: the dispatcher is
    rebuilt decision-for-decision (the replay also re-drives the
    metrics recorders), recovery counters land in the registry, and
    the service resumes the unfinished work on start.  ``shards > 1``
    builds a :class:`~repro.serve.shard.router.ShardRouter`.
    """
    if config.shards > 1:
        from .shard.router import ShardRouter

        router = ShardRouter(
            config.make_plan(),
            scheduler=config.scheduler,
            seed=config.seed,
            slo=config.slo,
            max_queue_depth=config.max_queue_depth,
            on_unavailable=config.on_unavailable,
        )
        return ServeService(router, time_scale=config.time_scale)
    scheduler = make_scheduler(config.scheduler, config.m, seed=config.seed)
    metrics = ServeMetrics()
    admission = AdmissionController(slo=config.slo, max_queue_depth=config.max_queue_depth)
    admission = admission if admission.enabled else None
    journal: Journal | None = None
    recovery: Recovery | None = None
    if config.journal_dir is not None:
        journal = Journal(config.journal_dir, fsync=config.journal_fsync)
        if journal.has_state:
            t0 = time.perf_counter()
            recovery = Dispatcher.recover(
                journal,
                scheduler,
                admission=admission,
                metrics=metrics,
                on_unavailable=config.on_unavailable,
            )
            registry = metrics.registry
            registry.counter("recovery_runs_total").inc()
            registry.counter("recovery_replayed_total").inc(recovery.n_replayed)
            registry.counter("recovery_dropped_tail_total").inc(recovery.n_dropped_tail)
            registry.gauge("recovery_seconds").set(time.perf_counter() - t0)
    if recovery is not None:
        dispatcher = recovery.dispatcher
    else:
        dispatcher = Dispatcher(
            scheduler,
            admission=admission,
            metrics=metrics,
            on_unavailable=config.on_unavailable,
        )
    return ServeService(
        dispatcher,
        time_scale=config.time_scale,
        journal=journal,
        recovery=recovery,
        journal_snapshot_every=config.journal_snapshot_every,
    )


class ServeService:
    """Real-time enactment of a decision core.

    ``dispatcher`` is the core: a :class:`Dispatcher` (with metrics),
    or a :class:`~repro.serve.shard.router.ShardRouter`, which answers
    the same calls.  ``time_scale`` converts virtual time units to wall
    seconds.  With a ``journal``, every state transition is logged
    before it is acknowledged; with a ``recovery``, the work the
    crashed process placed but did not finish is re-enqueued on
    :meth:`start`.  Must be :meth:`start`-ed inside a running event
    loop; :meth:`stop` cancels the in-flight timers.
    """

    def __init__(
        self,
        dispatcher: "Dispatcher | ShardRouter",
        time_scale: float = 1.0,
        journal: Journal | None = None,
        recovery: Recovery | None = None,
        journal_snapshot_every: int = 0,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be > 0")
        self.dispatcher = dispatcher
        self.time_scale = time_scale
        self.m = dispatcher.m
        self.journal = journal
        self.recovery = recovery
        self.journal_snapshot_every = journal_snapshot_every
        self._t0: float | None = None
        recovered = recovery is not None
        self._completed_tids: set[int] = set(recovery.completed) if recovered else set()
        #: dedupe key -> original decision (idempotent retries are
        #: answered from here without touching the dispatcher).
        self._dedupe: dict[str, DispatchDecision] = dict(recovery.dedupe) if recovered else {}
        self.lanes = MachineLanes(
            self.m,
            time_scale,
            alive=dispatcher.machine_alive,
            on_complete=self._on_complete,
            on_displaced=self._route_displaced,
            completed=recovery.n_completed if recovered else 0,
        )

    # -- journal plumbing ----------------------------------------------------
    def _journal_append(self, kind: str, data: dict[str, Any], commit: bool = False) -> None:
        if self.journal is not None:
            self.journal.append(kind, data, commit=commit)

    def _maybe_snapshot(self) -> None:
        journal = self.journal
        if (
            journal is None
            or self.journal_snapshot_every <= 0
            or journal.seq - journal.snapshot_seq < self.journal_snapshot_every
        ):
            return
        journal.write_snapshot(self._snapshot_state())
        self.dispatcher.counter("journal_snapshots_total").inc()

    def _snapshot_state(self) -> dict[str, Any]:
        dedupe_wire = {
            key: {
                "task": task_to_wire(d.task),
                "status": d.status,
                "machine": d.machine,
                "start": d.start,
                "est_flow": d.est_flow,
                "reason": d.reason,
            }
            for key, d in self._dedupe.items()
        }
        return {
            "dispatcher": self.dispatcher.state_dict(),
            "service": {
                "completed": sorted(self._completed_tids),
                "n_completed": self.n_completed,
                "dedupe": dedupe_wire,
            },
        }

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        self.lanes.start()
        self._t0 = asyncio.get_running_loop().time()
        if self.recovery is not None:
            # Re-enqueue the work the crashed process had placed but
            # not finished (at-least-once service; dispatch stays
            # exactly-once through the journal + dedupe cache).
            for tid, machine in self.recovery.pending():
                self.lanes.push(machine, self.dispatcher._tasks[tid], self._t0)

    async def stop(self) -> None:
        self.lanes.stop()
        if self.journal is not None:
            self.journal.close()

    def now(self) -> float:
        """Wall time since :meth:`start`, in virtual units."""
        if self._t0 is None:
            return 0.0
        return (asyncio.get_running_loop().time() - self._t0) / self.time_scale

    @property
    def n_completed(self) -> int:
        return self.lanes.n_completed

    async def drain(self) -> int:
        """Wait until every dispatched request finished service (parked
        requests don't count — they hold no machine); returns the
        completion count so far."""
        return await self.lanes.drain()

    # -- request path --------------------------------------------------------
    def submit(self, task) -> DispatchDecision:
        """Decide and, if placed, enqueue for real-time service."""
        decision = self.dispatcher.submit(task)
        if decision.status in _PLACED:
            self.lanes.push(decision.machine, decision.task)
        return decision

    def _on_complete(self, machine: int, task, wall_flow: float) -> None:
        self.dispatcher.on_complete(machine, wall_flow)
        self._completed_tids.add(task.tid)
        # Completion durability rides the batch: a torn tail
        # ``complete`` only re-serves idempotent simulated work.
        self._journal_append("complete", {"tid": task.tid})

    def _route_displaced(self, task, arrival: float) -> None:
        now = self.now()
        self._journal_append("redispatch", {"tid": task.tid, "now": now}, commit=True)
        decision = self.dispatcher.redispatch(task, now)
        if decision.status == REQUEUED:
            self.lanes.push(decision.machine, task, arrival)
        # parked: it re-enters the lanes at the next revive

    def _push_requeued(self, decisions: list) -> int:
        for decision in decisions:
            if decision.status == REQUEUED:
                self.lanes.push(decision.machine, decision.task)
        return len(decisions)

    # -- fault surface -------------------------------------------------------
    def _check_machine(self, machine: int) -> None:
        # before the journal record: a bad op must not reach the WAL
        if not 1 <= machine <= self.m:
            raise ValueError(f"machine {machine} outside 1..{self.m}")

    def kill(self, machine: int) -> int:
        """Stop ``machine``: no further dispatches, queued requests are
        re-dispatched over the alive machines (the in-flight request
        finishes — drain-on-failure).  Returns how many were displaced."""
        self._check_machine(machine)
        self._journal_append("kill", {"machine": machine, "now": self.now()}, commit=True)
        self.dispatcher.kill(machine)
        return self.lanes.kill(machine)

    def revive(self, machine: int) -> int:
        """Revive ``machine`` and enqueue any unparked requests;
        returns how many left the parking lot."""
        self._check_machine(machine)
        now = self.now()
        self._journal_append("revive", {"machine": machine, "now": now}, commit=True)
        return self._push_requeued(self.dispatcher.revive(machine, now))

    async def apply_faults(self, faults: FaultSchedule) -> None:
        """Replay ``faults`` in scaled wall time (run as a background
        task alongside the frontend)."""
        if faults.max_machine() > self.m:
            raise ValueError(
                f"fault schedule references machine {faults.max_machine()}, "
                f"but the service has m={self.m}"
            )
        loop = asyncio.get_running_loop()
        t0 = self._t0 if self._t0 is not None else loop.time()
        for time_, kind, machine in faults.events():
            delay = t0 + time_ * self.time_scale - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if kind == "down":
                self.kill(machine)
            else:
                self.revive(machine)

    # -- shard surface (a router core only) ----------------------------------
    def route(self) -> str:
        """The shard plan as JSON, for client-side routing."""
        return self.dispatcher.plan.to_json()

    def detach_shard(self, sid: int) -> list[int]:
        """Mark shard ``sid`` down at the router (its process died);
        idempotent.  Returns the down shards."""
        self.dispatcher.detach_shard(sid)
        return sorted(self.dispatcher.down_shards)

    def reattach_shard(self, sid: int) -> int:
        """Rejoin shard ``sid`` at the router and enqueue any re-placed
        router-parked requests; returns how many left the parking lot."""
        return self._push_requeued(self.dispatcher.reattach_shard(sid, now=self.now()))

    # -- introspection -------------------------------------------------------
    def registry(self) -> MetricsRegistry:
        return self.dispatcher.registry()

    def stats(self) -> dict[str, Any]:
        """Service counters plus the live metrics snapshot (the
        ``stats`` op payload)."""
        stats: dict[str, Any] = {
            "now": self.now(),
            **self.dispatcher.stats(),
            "completed": self.n_completed,
            "outstanding": self.lanes.outstanding,
            "metrics": self.registry().snapshot(),
        }
        if self.journal is not None:
            stats["journal"] = {
                "seq": self.journal.seq,
                "snapshot_seq": self.journal.snapshot_seq,
                "dedupe_keys": len(self._dedupe),
            }
        if self.recovery is not None:
            stats["recovered"] = {
                "replayed": self.recovery.n_replayed,
                "dropped_tail": self.recovery.n_dropped_tail,
                "completed_precrash": self.recovery.n_completed,
            }
        return stats

    def write_metrics(self, path: str | Path) -> None:
        """Dump the canonical metrics snapshot of :meth:`registry`."""
        write_metrics(self.registry(), path, meta={"source": "repro-serve"})

    async def snapshot_loop(self, path: str | Path, every: float) -> None:
        """Periodically dump the canonical metrics snapshot to ``path``
        (run as a background task; the final state is written by the
        server loop on shutdown)."""
        while True:
            await asyncio.sleep(every)
            self.write_metrics(path)

    # -- frontend ------------------------------------------------------------
    def connection(self, stop_event: asyncio.Event | None = None) -> FrameConnection:
        """One connection's protocol (a factory for :func:`start_endpoint`);
        ``shutdown`` sets ``stop_event``.  A peer that vanishes just ends
        the connection: committed state stands, and a retry is answered
        from the dedupe cache."""
        return FrameConnection(self.handle, self.on_error, stop_event)

    def on_error(self) -> None:
        self.dispatcher.on_error()

    #: the control ops: op -> (decision-core member the op needs,
    #: argument field, service method, response field).  An op whose
    #: member the core lacks is refused like an unknown op.
    _OPS = {
        "route": ("plan", None, "route", "plan"),
        "kill": ("kill", "machine", "kill", "displaced"),
        "revive": ("revive", "machine", "revive", "unparked"),
        "detach-shard": ("detach_shard", "shard", "detach_shard", "down"),
        "reattach-shard": ("reattach_shard", "shard", "reattach_shard", "unparked"),
    }

    def handle(self, message: dict[str, Any]) -> dict[str, Any] | Awaitable[dict[str, Any]]:
        """The response to one request frame; ``drain`` answers with an
        awaitable, which holds back the connection's later frames."""
        complaint = check_version(message)
        if complaint is not None:
            self.on_error()
            return version_error(message, complaint)
        op = message.get("op")
        if op == "submit":
            return self._submit_op(message)
        if op == "ping":
            return self._pong()
        if op == "stats":
            return {"ok": True, "op": "stats", "stats": self.stats()}
        if op == "drain":
            return self._drain_op()
        if op == "shutdown":
            return {"ok": True, "op": "shutdown"}
        spec = self._OPS.get(op)
        if spec is None or not hasattr(self.dispatcher, spec[0]):
            self.on_error()
            return {"ok": False, "error": f"unknown op {op!r}"}
        _, field, method, answer = spec
        try:
            args = () if field is None else (int(message[field]),)
            result = getattr(self, method)(*args)
        except (KeyError, TypeError, ValueError) as exc:
            self.on_error()
            return {"ok": False, "op": op, "error": str(exc)}
        return {"ok": True, "op": op, answer: result}

    def _pong(self) -> dict[str, Any]:
        return {"ok": True, "op": "pong", "now": self.now(), "shards": self.dispatcher.n_shards}

    async def _drain_op(self) -> dict[str, Any]:
        return {"ok": True, "op": "drain", "completed": await self.drain()}

    def _submit_error(self, message: dict[str, Any], exc: Exception) -> dict[str, Any]:
        self.on_error()
        return {"ok": False, "op": "submit", "tid": message.get("tid"), "error": str(exc)}

    @staticmethod
    def _submit_response(decision: DispatchDecision) -> dict[str, Any]:
        return {
            "ok": True,
            "op": "submit",
            "tid": decision.task.tid,
            "status": decision.status,
            "machine": decision.machine,
            "start": decision.start,
            "est_flow": decision.est_flow,
            "reason": decision.reason,
            **decision.routing,
        }

    def _submit_op(self, message: dict[str, Any]) -> dict[str, Any]:
        key = message.get("dedupe")
        if key is not None:
            if not isinstance(key, str):
                return self._submit_error(
                    message, TypeError(f"dedupe key must be a string, got {type(key).__name__}")
                )
            if key in self._dedupe:
                self.dispatcher.counter("dedupe_hits_total").inc()
                return self._submit_response(self._dedupe[key])
        try:
            task = task_from_wire(message)
        except ProtocolError as exc:
            return self._submit_error(message, exc)
        # Write-ahead: the journal record lands (and syncs) before the
        # decision is taken or acknowledged, so a crash after this line
        # replays the submit and a retried duplicate hits the rebuilt
        # dedupe cache instead of re-dispatching.
        self._journal_append("submit", {"task": task_to_wire(task), "dedupe": key}, commit=True)
        try:
            decision = self.submit(task)
        except ValueError as exc:
            return self._submit_error(message, exc)
        if key is not None:
            self._dedupe[key] = decision
        self._maybe_snapshot()
        return self._submit_response(decision)


async def serve(
    config: ServeConfig,
    socket_path: str | Path | None = None,
    host: str | None = None,
    port: int | None = None,
    faults: FaultSchedule | None = None,
) -> dict[str, Any]:
    """Run a dispatch service until a client sends ``shutdown`` (or the
    task is cancelled); returns the final stats.

    Exactly one endpoint must be given: a unix ``socket_path`` or a TCP
    ``host``/``port`` pair.  Alongside the frontend this runs the fault
    replay and the ``config.snapshot_path`` metrics dumps.
    """
    if (socket_path is None) == (host is None or port is None):
        raise ValueError("serve needs exactly one of socket_path or host+port")
    service = build_service(config)
    await service.start()
    stop_event = asyncio.Event()
    try:
        server = await start_endpoint(
            lambda: service.connection(stop_event), socket_path=socket_path, host=host, port=port
        )
    except OSError:
        await service.stop()
        raise
    background: list[asyncio.Task] = []
    loop = asyncio.get_running_loop()
    if faults is not None and faults:
        background.append(loop.create_task(service.apply_faults(faults)))
    snapshot_path = config.snapshot_path
    if snapshot_path is not None:
        background.append(
            loop.create_task(service.snapshot_loop(snapshot_path, config.snapshot_every))
        )
    try:
        async with server:
            await stop_event.wait()
    finally:
        for task in background:
            task.cancel()
        await asyncio.gather(*background, return_exceptions=True)
        await service.stop()
        if snapshot_path is not None:
            service.write_metrics(snapshot_path)
    return service.stats()
