"""Client-side resilience: the driver that survives a hostile network.

:func:`drive_resilient` is the open-loop driver of
:mod:`repro.serve.driver` rebuilt for lossy transport — the client end
of the crash/chaos story.  Three mechanisms, composed:

* **timeout + bounded exponential backoff** — every submit must be
  acked within ``ack_timeout``; a timeout, dropped connection, or
  corrupt frame tears the connection down and the driver reconnects
  after a deterministic backoff (:class:`repro.campaigns.runner.
  RetryPolicy` — the campaign tier's retry schedule, reused verbatim);
* **idempotent submits** — every submit carries a ``dedupe`` key
  (``"{prefix}:{tid}"``); on reconnect the driver resends everything
  sent-but-unacked *in tid order* before resuming fresh sends, and the
  service answers repeats from its decision cache without dispatching,
  so at-least-once delivery never becomes more-than-once dispatch, and
  the assignment digest of a chaos run equals the clean run's;
* **a per-connection circuit breaker** — ``breaker_threshold``
  consecutive failed connection epochs open the breaker and hold
  reconnection attempts off for ``breaker_cooldown`` seconds (on top
  of backoff), then probe half-open.

Release-order is preserved across reconnects: within every connection
frames are sequential and sent in tid order, and resends always carry
tids below the next fresh tid, so the *first* time the service sees
each submit is in tid (= release) order — exactly the stream an
uninterrupted drive delivers.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..campaigns.runner import RetryPolicy
from ..core.task import Instance, Task
from .driver import DriveReport
from .protocol import ProtocolError, read_frame, task_to_wire, versioned, write_frame

__all__ = ["CircuitBreaker", "ClientResilience", "ResilienceExhausted", "drive_resilient"]


class ResilienceExhausted(RuntimeError):
    """The retry budget ran out with submits still unacknowledged."""


class CircuitBreaker:
    """Consecutive-failure breaker over connection epochs.

    ``threshold`` consecutive failures open the breaker; while open,
    :meth:`holdoff` returns the remaining cooldown.  After the cooldown
    the breaker is half-open — one attempt may probe; a further failure
    re-opens (restarting the cooldown), a success closes it.  Clocks
    are passed in (``loop.time()`` values) so the breaker itself stays
    deterministic and testable.
    """

    def __init__(self, threshold: int = 5, cooldown: float = 1.0) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self.failures = 0
        self.opened_at: float | None = None
        self.n_opens = 0

    def record_failure(self, now: float) -> None:
        self.failures += 1
        if self.failures >= self.threshold:
            if self.opened_at is None:
                self.n_opens += 1
            self.opened_at = now

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None

    def holdoff(self, now: float) -> float:
        """Seconds the caller must wait before the next attempt."""
        if self.opened_at is None:
            return 0.0
        return max(0.0, self.opened_at + self.cooldown - now)

    def state(self, now: float) -> str:
        if self.opened_at is None:
            return "closed"
        return "open" if self.holdoff(now) > 0 else "half-open"


@dataclass(frozen=True)
class ClientResilience:
    """The retry/timeout/breaker envelope of a resilient drive."""

    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(retries=10, backoff=0.05, max_backoff=2.0)
    )
    ack_timeout: float = 2.0
    breaker_threshold: int = 5
    breaker_cooldown: float = 0.5

    def __post_init__(self) -> None:
        if self.ack_timeout <= 0:
            raise ValueError(f"ack_timeout must be > 0, got {self.ack_timeout}")
        # breaker params validated by CircuitBreaker at build time
        CircuitBreaker(self.breaker_threshold, self.breaker_cooldown)

    def make_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(self.breaker_threshold, self.breaker_cooldown)


async def drive_resilient(
    instance: Instance,
    socket_path: str | Path | None = None,
    host: str | None = None,
    port: int | None = None,
    time_scale: float = 1.0,
    target_rate: float | None = None,
    resilience: ClientResilience | None = None,
    dedupe_prefix: str = "drive",
    drain: bool = True,
    stats: bool = True,
    shutdown: bool = False,
) -> DriveReport:
    """Replay ``instance`` over an unreliable transport and report.

    Semantics match :func:`repro.serve.driver.drive` — open-loop
    pacing, same report — plus the resilience envelope: the run either
    acks *every* submit exactly once (``n_errors`` still counts only
    server-side rejections) or raises :class:`ResilienceExhausted`.
    """
    if (socket_path is None) == (host is None or port is None):
        raise ValueError("drive_resilient needs exactly one of socket_path or host+port")
    if time_scale <= 0:
        raise ValueError("time_scale must be > 0")
    res = resilience if resilience is not None else ClientResilience()
    breaker = res.make_breaker()
    report = DriveReport(target_rate=target_rate)
    tasks = list(instance)
    n = len(tasks)
    acks: dict[int, dict[str, Any]] = {}
    unacked: dict[int, Task] = {}  # sent but not yet acked, keyed by tid
    sent: set[int] = set()
    next_i = 0  # index of the next fresh (never-sent) task
    loop = asyncio.get_running_loop()
    attempt = 0  # consecutive no-progress connection epochs

    async def connect() -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        hold = breaker.holdoff(loop.time())
        if hold > 0:
            await asyncio.sleep(hold)
        if socket_path is not None:
            return await asyncio.open_unix_connection(path=str(socket_path))
        return await asyncio.open_connection(host=host, port=port)

    def submit_frame(task: Task) -> dict[str, Any]:
        return versioned(
            {
                "op": "submit",
                **task_to_wire(task),
                "dedupe": f"{dedupe_prefix}:{task.tid}",
            }
        )

    async def sender(writer: asyncio.StreamWriter, t0: float) -> None:
        nonlocal next_i
        for tid in sorted(unacked):
            await write_frame(writer, submit_frame(unacked[tid]))
            report.n_retries += 1
        while next_i < n:
            task = tasks[next_i]
            delay = t0 + task.release * time_scale - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            await write_frame(writer, submit_frame(task))
            unacked[task.tid] = task
            sent.add(task.tid)
            report.n_sent += 1
            next_i += 1

    async def receiver(reader: asyncio.StreamReader) -> None:
        while len(acks) < n:
            try:
                message = await asyncio.wait_for(read_frame(reader), res.ack_timeout)
            except asyncio.TimeoutError:
                if unacked:
                    raise
                continue  # nothing in flight — keep listening
            if message is None:
                raise ConnectionResetError("server closed the connection")
            tid = message.get("tid")
            if tid is None:
                # an un-addressed error frame: the server lost framing
                # on our stream and is about to drop the connection
                raise ProtocolError(str(message.get("error", "unaddressed error frame")))
            tid = int(tid)
            if tid in acks:
                report.n_dup_acks += 1
                continue
            acks[tid] = message
            unacked.pop(tid, None)

    t0 = loop.time()
    reader: asyncio.StreamReader | None = None
    writer: asyncio.StreamWriter | None = None
    recoverable = (ProtocolError, OSError, EOFError, asyncio.TimeoutError, TimeoutError)

    async def teardown() -> None:
        nonlocal reader, writer
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass
        reader = writer = None

    try:
        while len(acks) < n:
            acked_before = len(acks)
            try:
                reader, writer = await connect()
                send_task = loop.create_task(sender(writer, t0))
                recv_task = loop.create_task(receiver(reader))
                done, pending = await asyncio.wait(
                    {send_task, recv_task}, return_when=asyncio.FIRST_EXCEPTION
                )
                for p in pending:
                    p.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
                # Retrieve every finished task's exception before raising
                # one: sender and receiver often fail in the same wakeup,
                # and an unretrieved one is logged when its task is freed.
                failures = [d.exception() for d in done]
                for exc in failures:
                    if exc is not None:
                        raise exc
            except recoverable:
                await teardown()
                if len(acks) > acked_before:
                    attempt = 0
                    breaker.record_success()
                else:
                    attempt += 1
                breaker.record_failure(loop.time())
                if attempt > res.retry.retries:
                    raise ResilienceExhausted(
                        f"{len(acks)}/{n} acked after {attempt} consecutive "
                        "failed connection attempts"
                    )
                report.n_reconnects += 1
                await asyncio.sleep(res.retry.delay(dedupe_prefix, max(attempt, 1)))
            else:
                breaker.record_success()
                attempt = 0
        report.elapsed = loop.time() - t0

        # Post-drive control ops, with the same reconnect envelope.
        async def request(message: dict[str, Any]) -> dict[str, Any] | None:
            nonlocal reader, writer, attempt
            timeout = max(10.0, 20 * res.ack_timeout)
            while True:
                try:
                    if writer is None:
                        reader, writer = await connect()
                    await write_frame(writer, message)
                    response = await asyncio.wait_for(read_frame(reader), timeout)
                    if response is None:
                        raise ConnectionResetError("server closed during control op")
                    attempt = 0
                    breaker.record_success()
                    return response
                except recoverable:
                    await teardown()
                    attempt += 1
                    breaker.record_failure(loop.time())
                    if attempt > res.retry.retries:
                        raise ResilienceExhausted(
                            f"control op {message.get('op')!r} failed after "
                            f"{attempt} attempts"
                        )
                    report.n_reconnects += 1
                    await asyncio.sleep(res.retry.delay(dedupe_prefix, max(attempt, 1)))

        if drain:
            await request({"op": "drain"})
        if stats:
            response = await request({"op": "stats"})
            if response is not None and response.get("ok"):
                report.server_stats = response.get("stats")
        if shutdown:
            await request({"op": "shutdown"})
    finally:
        await teardown()

    for task in tasks:
        ack = acks.get(task.tid)
        if ack is None or not ack.get("ok"):
            report.n_errors += 1
            continue
        report.n_acked += 1
        status = ack.get("status")
        if status == "dispatched" or status == "requeued":
            report.n_dispatched += 1
            report.assignments.append((ack["tid"], ack["machine"]))
            report.est_flows.append(float(ack["est_flow"]))
        elif status == "shed":
            report.n_shed += 1
            reason = ack.get("reason") or "unknown"
            report.shed_by_reason[reason] = report.shed_by_reason.get(reason, 0) + 1
        elif status == "parked":
            report.n_parked += 1
    return report
