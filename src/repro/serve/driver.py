"""Open-loop load generator for the dispatch service: the one client.

The driver replays a scheduling :class:`~repro.core.task.Instance` —
built from a :class:`~repro.simulation.workload.WorkloadSpec` or a
:class:`~repro.simulation.kvstore.KeyValueStore` request stream — over
the wire at the workload's own Poisson pacing: request ``i`` is sent at
wall offset ``release_i * time_scale`` whether or not earlier responses
have arrived (open loop, so a saturated service sees the true arrival
process, not one throttled by its own latency).  Responses are
collected concurrently on the same connection.

Because the service decides placements from the *virtual* release
stamps carried by the requests, a drive of the same workload (same
seed) reports identical task→machine assignments on every run — the
:attr:`DriveReport.assignments_digest` makes that a one-line check.

The same loop survives a hostile network (the client end of the
crash/chaos story), through three mechanisms:

* **timeout + bounded exponential backoff** — every submit must be
  acked within ``ack_timeout``; a timeout, dropped connection, or
  corrupt frame tears the connection down and the driver reconnects
  after a deterministic backoff (:class:`repro.campaigns.runner.
  RetryPolicy` — the campaign tier's retry schedule, reused verbatim);
* **idempotent submits** — every submit carries a ``dedupe`` key; on
  reconnect the driver resends everything sent-but-unacked *in tid
  order* before resuming fresh sends, and the service answers repeats
  from its decision cache without dispatching, so at-least-once
  delivery never becomes more-than-once dispatch, and the assignment
  digest of a chaos run equals the clean run's;
* **a per-connection circuit breaker** — ``breaker_threshold``
  consecutive failed connection epochs open the breaker and hold
  reconnection attempts off for ``breaker_cooldown`` seconds (on top
  of backoff), then probe half-open.
"""

from __future__ import annotations

import asyncio
import hashlib
import secrets
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from ..campaigns.runner import RetryPolicy
from ..core.task import Instance, Task
from ..simulation.kvstore import KeyValueStore
from ..simulation.workload import WorkloadSpec, generate_workload
from ..obs.rollup import rollup_snapshots
from .protocol import ProtocolError, read_frame, task_to_wire, versioned, write_frame

__all__ = [
    "CircuitBreaker",
    "ClientResilience",
    "DriveReport",
    "ResilienceExhausted",
    "build_drive_instance",
    "drive",
    "percentile",
]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by nearest-rank on the
    sorted data.

    Raises :class:`ValueError` on an empty sequence — a percentile of
    nothing is not 0, and silently reporting one hid empty-tail bugs.
    """
    if not values:
        raise ValueError("percentile() of an empty sequence")
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]


@dataclass
class DriveReport:
    """Outcome of one drive run.

    ``n_errors`` counts requests the server answered with ``ok: false``
    — a correct run reports zero (the "no requests dropped by a bug"
    invariant; shed requests are accounted separately, they are policy,
    not bugs).  A drive that cannot get every submit acked raises
    :class:`ResilienceExhausted` instead of returning a report.
    """

    n_sent: int = 0
    n_acked: int = 0
    n_dispatched: int = 0
    n_shed: int = 0
    n_parked: int = 0
    n_errors: int = 0
    n_retries: int = 0
    n_reconnects: int = 0
    n_dup_acks: int = 0
    shed_by_reason: dict[str, int] = field(default_factory=dict)
    est_flows: list[float] = field(default_factory=list)
    assignments: list[tuple[int, int]] = field(default_factory=list)
    elapsed: float = 0.0
    target_rate: float | None = None
    server_stats: dict[str, Any] | None = None

    @property
    def achieved_rate(self) -> float:
        return self.n_sent / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def assignments_digest(self) -> str:
        """SHA-256 over the ``tid:machine`` assignment list in
        submission order — equal digests mean identical placements."""
        payload = ",".join(f"{tid}:{machine}" for tid, machine in self.assignments)
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_text(self) -> str:
        lines = [
            f"drive report: sent {self.n_sent} requests in {self.elapsed:.3f} s "
            + (
                f"(target {self.target_rate:.1f} rps, achieved {self.achieved_rate:.1f} rps)"
                if self.target_rate
                else f"(achieved {self.achieved_rate:.1f} rps)"
            ),
            f"acked: {self.n_acked}/{self.n_sent}  errors: {self.n_errors}",
            f"dispatched: {self.n_dispatched}  shed: {self.n_shed}"
            + (
                " (" + ", ".join(f"{k} {v}" for k, v in sorted(self.shed_by_reason.items())) + ")"
                if self.shed_by_reason
                else ""
            )
            + f"  parked: {self.n_parked}",
        ]
        if self.n_retries or self.n_reconnects or self.n_dup_acks:
            lines.append(
                f"resilience: retries {self.n_retries}  reconnects {self.n_reconnects}  "
                f"duplicate acks {self.n_dup_acks}"
            )
        if self.est_flows:
            lines.append(
                "est flow (virtual units): "
                f"p50={percentile(self.est_flows, 0.50):.6g}  "
                f"p99={percentile(self.est_flows, 0.99):.6g}  "
                f"max={max(self.est_flows):.6g}"
            )
        if self.server_stats is not None:
            s = self.server_stats
            wall = s.get("metrics", {}).get("histograms", {}).get("wall_flow")
            extra = ""
            if wall and wall.get("count"):
                extra = (
                    f", wall flow mean={wall['sum'] / wall['count']:.6g} "
                    f"max={wall['max']:.6g} (virtual units)"
                )
            lines.append(f"server: completed {s.get('completed', 0)}{extra}")
        lines.append(f"assignments sha256: {self.assignments_digest}")
        return "\n".join(lines)

    @classmethod
    def merge(
        cls, reports: Sequence["DriveReport"], order: Sequence[int] | None = None
    ) -> "DriveReport":
        """Merge per-shard drive reports into one fleet report.

        Counters sum; ``elapsed`` is the slowest shard (the drives ran
        concurrently); assignments and estimated flows are reassembled
        in ``order`` (the tid sequence of the full instance — submission
        order, so the merged :attr:`assignments_digest` is directly
        comparable to a single-connection drive of the same workload),
        falling back to tid order.  Per-shard server stats are kept
        under ``"shards"`` with their metrics rolled up fleet-wide
        (:func:`repro.obs.rollup.rollup_snapshots`).
        """
        if not reports:
            raise ValueError("merge() of no reports")
        merged = cls()
        placed: list[tuple[int, int, float]] = []
        targets = [r.target_rate for r in reports if r.target_rate]
        merged.target_rate = sum(targets) if targets else None
        for r in reports:
            merged.n_sent += r.n_sent
            merged.n_acked += r.n_acked
            merged.n_dispatched += r.n_dispatched
            merged.n_shed += r.n_shed
            merged.n_parked += r.n_parked
            merged.n_errors += r.n_errors
            merged.n_retries += r.n_retries
            merged.n_reconnects += r.n_reconnects
            merged.n_dup_acks += r.n_dup_acks
            for reason, count in r.shed_by_reason.items():
                merged.shed_by_reason[reason] = merged.shed_by_reason.get(reason, 0) + count
            placed.extend(
                (tid, machine, flow)
                for (tid, machine), flow in zip(r.assignments, r.est_flows)
            )
            merged.elapsed = max(merged.elapsed, r.elapsed)
        rank = (
            {tid: i for i, tid in enumerate(order)}
            if order is not None
            else {tid: tid for tid, _, _ in placed}
        )
        placed.sort(key=lambda p: rank.get(p[0], p[0]))
        merged.assignments = [(tid, machine) for tid, machine, _ in placed]
        merged.est_flows = [flow for _, _, flow in placed]
        shard_stats = [r.server_stats for r in reports if r.server_stats is not None]
        if shard_stats:
            merged.server_stats = {
                "shards": shard_stats,
                "completed": sum(s.get("completed", 0) for s in shard_stats),
                "metrics": rollup_snapshots(
                    {
                        f"shard{i}": s["metrics"]
                        for i, s in enumerate(shard_stats)
                        if "metrics" in s
                    },
                    members=False,
                ),
            }
        return merged


def build_drive_instance(
    source: str = "spec",
    m: int = 4,
    n: int = 200,
    rate: float = 100.0,
    k: int = 2,
    strategy: str = "overlapping",
    proc: float = 0.01,
    seed: int = 0,
    n_keys: int = 512,
    key_zipf_s: float = 0.0,
) -> Instance:
    """Build the request stream a drive replays.

    ``source="spec"`` draws a Figure-11-style workload (machine-level
    popularity) from a :class:`WorkloadSpec`; ``source="kv"`` runs the
    key-granularity pipeline (hash ring, per-key replica sets) of
    :class:`KeyValueStore`.  Either way releases are Poisson with
    ``rate`` arrivals per virtual unit and every request runs ``proc``
    units, so the offered load is ``rate * proc / m``.
    """
    if rate <= 0:
        raise ValueError("rate must be > 0")
    if proc <= 0:
        raise ValueError("proc must be > 0")
    rng = np.random.default_rng(seed)
    if source == "spec":
        spec = WorkloadSpec(m=m, n=n, lam=rate, k=k, strategy=strategy, case="uniform", proc=proc)
        return generate_workload(spec, rng=rng)
    if source == "kv":
        store = KeyValueStore.build(m, n_keys=n_keys, k=k, strategy=strategy, key_zipf_s=key_zipf_s)
        return store.request_stream(lam=rate, n=n, rng=rng, proc=proc)
    raise ValueError(f"unknown drive source {source!r} (expected 'spec' or 'kv')")


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
    """The retry/timeout/breaker envelope of a drive."""

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


#: Failures that tear the connection down and trigger a reconnect.
_RECOVERABLE = (ProtocolError, OSError, EOFError, asyncio.TimeoutError, TimeoutError)


async def drive(
    instance: Instance,
    socket_path: str | Path | None = None,
    host: str | None = None,
    port: int | None = None,
    time_scale: float = 1.0,
    target_rate: float | None = None,
    resilience: ClientResilience | None = None,
    shutdown: bool = False,
) -> DriveReport:
    """Replay ``instance`` against a running service and report.

    Requests go out open-loop at ``release * time_scale`` wall offsets;
    after the last ack the driver drains the service, pulls its final
    stats and (optionally) shuts it down.  The run either acks *every*
    submit exactly once (``n_errors`` counts server-side rejections) or
    raises :class:`ResilienceExhausted` once ``resilience`` (default
    :class:`ClientResilience()`) runs out of retries.

    Every submit carries the dedupe key ``"{run}:{tid}"`` with ``run``
    fresh for each call: a resend within this drive is answered from
    the service's decision cache, while a later drive reusing the same
    tids is not.  The backoff jitter is keyed by the endpoint, so retry
    timing is a pure function of the arguments.
    """
    if (socket_path is None) == (host is None or port is None):
        raise ValueError("drive needs exactly one of socket_path or host+port")
    if time_scale <= 0:
        raise ValueError("time_scale must be > 0")
    res = resilience if resilience is not None else ClientResilience()
    breaker = res.make_breaker()
    run = secrets.token_hex(8)
    endpoint = str(socket_path) if socket_path is not None else f"{host}:{port}"
    report = DriveReport(target_rate=target_rate)
    tasks = list(instance)
    n = len(tasks)
    acks: dict[int, dict[str, Any]] = {}
    unacked: dict[int, Task] = {}  # sent but not yet acked, keyed by tid
    next_i = 0  # index of the next fresh (never-sent) task
    loop = asyncio.get_running_loop()
    attempt = 0  # consecutive no-progress connection epochs
    reader: asyncio.StreamReader | None = None
    writer: asyncio.StreamWriter | None = None

    async def connect() -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        hold = breaker.holdoff(loop.time())
        if hold > 0:
            await asyncio.sleep(hold)
        if socket_path is not None:
            return await asyncio.open_unix_connection(path=str(socket_path))
        return await asyncio.open_connection(host=host, port=port)

    async def teardown() -> None:
        nonlocal reader, writer
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass
        reader = writer = None

    async def back_off(exc: BaseException, progressed: bool, what: str) -> None:
        """Tear the connection down after ``exc`` and wait out the
        backoff, or raise :class:`ResilienceExhausted`."""
        nonlocal attempt
        await teardown()
        if progressed:
            attempt = 0
            breaker.record_success()
        else:
            attempt += 1
        breaker.record_failure(loop.time())
        if attempt > res.retry.retries:
            raise ResilienceExhausted(
                f"{what} after {attempt} consecutive failed connection attempts "
                f"(last error: {exc!r})"
            ) from exc
        report.n_reconnects += 1
        await asyncio.sleep(res.retry.delay(endpoint, max(attempt, 1)))

    def submit_frame(task: Task) -> dict[str, Any]:
        return versioned({"op": "submit", **task_to_wire(task), "dedupe": f"{run}:{task.tid}"})

    async def sender(writer: asyncio.StreamWriter, t0: float) -> None:
        nonlocal next_i
        # Resends carry tids below the next fresh one and each connection
        # is sequential, so the service first sees every submit in tid
        # (= release) order, exactly like an uninterrupted drive.
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

    async def request(message: dict[str, Any]) -> dict[str, Any]:
        """One post-drive control op, with the same reconnect envelope."""
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
            except _RECOVERABLE as exc:
                await back_off(exc, False, f"control op {message.get('op')!r} failed")

    t0 = loop.time()
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
            except _RECOVERABLE as exc:
                await back_off(exc, len(acks) > acked_before, f"{len(acks)}/{n} acked")
            else:
                breaker.record_success()
                attempt = 0
        report.elapsed = loop.time() - t0
        await request({"op": "drain"})
        response = await request({"op": "stats"})
        if response.get("ok"):
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
