"""The asyncio serving layer: frontend, machine lanes, live faults.

:class:`ServeService` enacts the virtual-clocked decisions of a
:class:`~repro.serve.dispatcher.Dispatcher` in real time: each
dispatched request joins its machine's FIFO lane
(:class:`~repro.serve.lanes.MachineLanes`) and is "served" for
``proc * time_scale`` wall seconds by one event-loop timer — the
engine's run-to-completion machine model.  A
:class:`~repro.serve.protocol.FrameConnection` per client answers every
``submit`` with the dispatch decision from the socket's read callback
(the push model: only ``drain`` waits on service completion).

The division of labour is strict: *which machine gets a request* is
decided by the dispatcher from the request's virtual release stamp, so
assignments are reproducible run over run; the asyncio layer only
controls *when* the work physically happens, which is where wall-clock
jitter lives (and is measured, in the ``wall_flow`` histogram).

Fault injection: :meth:`ServeService.kill` stops a machine (its queued
requests are re-dispatched over the alive machines; the in-flight one
finishes — drain-on-failure semantics), :meth:`ServeService.revive`
brings it back and re-dispatches parked requests.
:meth:`ServeService.apply_faults` replays a
:class:`repro.faults.FaultSchedule` in scaled wall time, so the same
outage scenarios used in degraded-mode simulation drive the live
service.

:class:`LiveService` and :func:`run_service` hold what this service
shares with the sharded one (:mod:`repro.serve.shard.service`).
"""

from __future__ import annotations

import asyncio
import errno
import socket as socket_module
import stat as stat_module
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable

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

__all__ = [
    "AddressInUseError",
    "LiveService",
    "ServeConfig",
    "ServeService",
    "build_service",
    "serve",
    "start_endpoint",
]


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
    instance per connection, e.g. :meth:`LiveService.connection`),
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
    (``None`` disables each); ``snapshot_path`` + ``snapshot_every``
    enable the periodic canonical metrics dump.

    ``journal_dir`` enables the write-ahead journal
    (:mod:`repro.serve.journal`): every state transition is logged
    before it is acknowledged, and a service built over a directory
    that already holds a journal *recovers* — snapshot restore plus WAL
    replay — before accepting traffic.  ``journal_fsync`` picks the
    durability policy; ``journal_snapshot_every`` triggers a state
    snapshot + log compaction every N journal records (0 = never).
    """

    m: int = 4
    scheduler: str = "eft-min"
    seed: int = 0
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
        if self.time_scale <= 0:
            raise ValueError("time_scale must be > 0")
        if self.snapshot_every <= 0:
            raise ValueError("snapshot_every must be > 0")
        if self.journal_snapshot_every < 0:
            raise ValueError("journal_snapshot_every must be >= 0")


def build_service(config: ServeConfig) -> "ServeService":
    """Wire a :class:`ServeService` from a :class:`ServeConfig`.

    With ``journal_dir`` set, an existing journal there is recovered:
    the dispatcher is rebuilt decision-for-decision (the replay also
    re-drives the metrics recorders), recovery counters land in the
    registry, and the service resumes the unfinished work on start.
    """
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
        metrics,
        time_scale=config.time_scale,
        journal=journal,
        recovery=recovery,
        journal_snapshot_every=config.journal_snapshot_every,
    )


class LiveService:
    """The real-time half both services share.

    A subclass sets ``m``, ``time_scale`` and ``lanes`` in its
    constructor and supplies ``kill``/``revive`` (the fault surface),
    ``_submit_op`` (the ``submit`` frame), ``on_error`` (counts a
    rejected frame), ``stats``, ``registry`` (what the metrics dump
    writes) and ``snapshot_source``; it may answer extra ops in
    ``_admin_op``.  Must be :meth:`start`-ed inside a running event
    loop; :meth:`stop` cancels the in-flight timers.
    """

    m: int
    time_scale: float
    lanes: MachineLanes
    snapshot_source = "repro-serve"
    _t0: float | None = None

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        self.lanes.start()
        self._t0 = asyncio.get_running_loop().time()

    async def stop(self) -> None:
        self.lanes.stop()

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

    # -- fault surface -------------------------------------------------------
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

    # -- introspection -------------------------------------------------------
    def write_metrics(self, path: str | Path) -> None:
        """Dump the canonical metrics snapshot of :meth:`registry`."""
        write_metrics(self.registry(), path, meta={"source": self.snapshot_source})

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
        response = self._admin_op(op, message)
        if response is None:
            self.on_error()
            response = {"ok": False, "error": f"unknown op {op!r}"}
        return response

    def _pong(self) -> dict[str, Any]:
        return {"ok": True, "op": "pong", "now": self.now()}

    async def _drain_op(self) -> dict[str, Any]:
        return {"ok": True, "op": "drain", "completed": await self.drain()}

    def _admin_op(self, op: Any, message: dict[str, Any]) -> dict[str, Any] | None:
        return None

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
        }


class ServeService(LiveService):
    """Real-time enactment of a :class:`Dispatcher`.

    ``time_scale`` converts virtual time units to wall seconds.  With a
    ``journal``, every state transition is logged before it is
    acknowledged; with a ``recovery``, the work the crashed process
    placed but did not finish is re-enqueued on :meth:`start`.
    """

    def __init__(
        self,
        dispatcher: Dispatcher,
        metrics: ServeMetrics,
        time_scale: float = 1.0,
        journal: Journal | None = None,
        recovery: Recovery | None = None,
        journal_snapshot_every: int = 0,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be > 0")
        self.dispatcher = dispatcher
        self.metrics = metrics
        self.time_scale = time_scale
        self.m = dispatcher.m
        self.journal = journal
        self.recovery = recovery
        self.journal_snapshot_every = journal_snapshot_every
        recovered = recovery is not None
        self._completed_tids: set[int] = set(recovery.completed) if recovered else set()
        #: dedupe key -> original decision (idempotent retries are
        #: answered from here without touching the dispatcher).
        self._dedupe: dict[str, DispatchDecision] = dict(recovery.dedupe) if recovered else {}
        self.lanes = MachineLanes(
            self.m,
            time_scale,
            alive=lambda machine: machine in self.dispatcher.alive,
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
        self.metrics.registry.counter("journal_snapshots_total").inc()

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
        await super().start()
        if self.recovery is not None:
            # Re-enqueue the work the crashed process had placed but
            # not finished (at-least-once service; dispatch stays
            # exactly-once through the journal + dedupe cache).
            arrival = asyncio.get_running_loop().time()
            for tid, machine in self.recovery.pending():
                self.lanes.push(machine, self.dispatcher._tasks[tid], arrival)

    async def stop(self) -> None:
        await super().stop()
        if self.journal is not None:
            self.journal.close()

    # -- request path --------------------------------------------------------
    def submit(self, task) -> DispatchDecision:
        """Decide and, if dispatched, enqueue for real-time service."""
        decision = self.dispatcher.submit(task)
        if decision.status == DISPATCHED:
            self.lanes.push(decision.machine, task)
        return decision

    def _on_complete(self, machine: int, task, wall_flow: float) -> None:
        self.metrics.on_complete(wall_flow)
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

    # -- fault surface -------------------------------------------------------
    def kill(self, machine: int) -> int:
        """Stop ``machine``: no further dispatches, queued requests are
        re-dispatched over the alive machines (the in-flight request
        finishes — drain-on-failure).  Returns how many were displaced."""
        self._journal_append("kill", {"machine": machine, "now": self.now()}, commit=True)
        self.dispatcher.kill(machine)
        return self.lanes.kill(machine)

    def revive(self, machine: int) -> int:
        """Revive ``machine`` and enqueue any unparked requests;
        returns how many left the parking lot."""
        now = self.now()
        self._journal_append("revive", {"machine": machine, "now": now}, commit=True)
        unparked = self.dispatcher.revive(machine, now)
        for decision in unparked:
            self.lanes.push(decision.machine, decision.task)
        return len(unparked)

    # -- introspection -------------------------------------------------------
    def registry(self) -> MetricsRegistry:
        return self.metrics.registry

    def stats(self) -> dict[str, Any]:
        """Service counters plus the live metrics snapshot (the
        ``stats`` op payload)."""
        d = self.dispatcher
        stats: dict[str, Any] = {
            "now": self.now(),
            "m": self.m,
            "alive": sorted(d.alive),
            "requests": d.n_dispatched + d.n_shed + len(d.parked),
            "dispatched": d.n_dispatched,
            "shed": d.n_shed,
            "requeued": d.n_requeued,
            "parked": len(d.parked),
            "completed": self.n_completed,
            "outstanding": self.lanes.outstanding,
            "metrics": self.metrics.registry.snapshot(),
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

    # -- frontend ------------------------------------------------------------
    def on_error(self) -> None:
        self.metrics.on_error()

    def _submit_op(self, message: dict[str, Any]) -> dict[str, Any]:
        key = message.get("dedupe")
        if key is not None:
            if not isinstance(key, str):
                return self._submit_error(
                    message, TypeError(f"dedupe key must be a string, got {type(key).__name__}")
                )
            if key in self._dedupe:
                self.metrics.registry.counter("dedupe_hits_total").inc()
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


async def run_service(
    service: LiveService,
    config: Any,
    socket_path: str | Path | None,
    host: str | None,
    port: int | None,
    faults: FaultSchedule | None,
) -> dict[str, Any]:
    """The server loop of :func:`serve` and ``serve_sharded``: start
    ``service``, bind the endpoint, run the fault replay and the
    ``config.snapshot_path`` metrics dumps, and return the final stats
    once a client sends ``shutdown`` (or the task is cancelled)."""
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
    ``host``/``port`` pair.
    """
    if (socket_path is None) == (host is None or port is None):
        raise ValueError("serve needs exactly one of socket_path or host+port")
    return await run_service(build_service(config), config, socket_path, host, port, faults)
