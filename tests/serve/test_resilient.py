"""Tests for the driver's resilience: breaker, retries, dedupe idempotency.

The end-to-end cases run the real service and the real chaos proxy in
one event loop and assert the acceptance property: a drive over a
faulty transport acks every task exactly once, dispatches nothing
twice, and lands on the byte-identical assignment digest of a clean
run.
"""

import asyncio
import gc

import pytest

from repro.campaigns.runner import RetryPolicy
from repro.chaos import ChaosConfig, ChaosProxy
from repro.core.task import Instance, Task
from repro.serve.frontend import start_endpoint
from repro.serve import (
    CircuitBreaker,
    ClientResilience,
    ResilienceExhausted,
    ServeConfig,
    build_drive_instance,
    build_service,
    drive,
    run_loopback_sync,
)

FAST = dict(m=4, n=40, rate=400.0, k=2, proc=0.004, seed=42)


def _fast_instance(**overrides):
    return build_drive_instance(**{"source": "spec", **FAST, **overrides})


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(threshold=3, cooldown=10.0)
        assert breaker.state(0.0) == "closed"
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        assert breaker.state(2.0) == "closed"
        assert breaker.holdoff(2.0) == 0.0
        breaker.record_failure(3.0)
        assert breaker.state(3.0) == "open"
        assert breaker.holdoff(4.0) == pytest.approx(9.0)
        assert breaker.n_opens == 1

    def test_half_open_after_cooldown(self):
        breaker = CircuitBreaker(threshold=1, cooldown=5.0)
        breaker.record_failure(0.0)
        assert breaker.state(4.9) == "open"
        assert breaker.state(5.1) == "half-open"
        assert breaker.holdoff(5.1) == 0.0

    def test_failure_while_open_restarts_cooldown(self):
        breaker = CircuitBreaker(threshold=1, cooldown=5.0)
        breaker.record_failure(0.0)
        breaker.record_failure(3.0)  # the half-open probe failed
        assert breaker.holdoff(3.0) == pytest.approx(5.0)
        assert breaker.n_opens == 1  # one open episode, not two

    def test_success_closes_and_resets(self):
        breaker = CircuitBreaker(threshold=2, cooldown=5.0)
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(1.0)
        assert breaker.state(1.0) == "closed"  # count restarted

    @pytest.mark.parametrize("kwargs", [dict(threshold=0), dict(cooldown=-1.0)])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)


class TestClientResilience:
    def test_defaults_valid(self):
        res = ClientResilience()
        assert res.make_breaker().threshold == res.breaker_threshold

    def test_bad_ack_timeout(self):
        with pytest.raises(ValueError):
            ClientResilience(ack_timeout=0.0)


async def _serve_and_drive(tmp, chaos, instance, resilience=None, config=None):
    """Run service + proxy + driver; return (report, stats)."""
    service = build_service(config if config is not None else ServeConfig(m=FAST["m"]))
    await service.start()
    upstream = str(tmp / "serve.sock")
    listen = str(tmp / "proxy.sock")

    server = await start_endpoint(service.connection, socket_path=upstream)
    try:
        async with server, ChaosProxy(
            chaos, upstream_socket=upstream, listen_socket=listen
        ):
            report = await drive(
                instance,
                socket_path=listen,
                target_rate=FAST["rate"],
                resilience=resilience,
            )
            stats = service.stats()  # needs the running loop
    finally:
        await service.stop()
    return report, stats


class TestResilientDrive:
    def test_clean_transport_matches_plain_driver(self, tmp_path):
        inst = _fast_instance()
        baseline = run_loopback_sync(inst, ServeConfig(m=FAST["m"]), target_rate=FAST["rate"])
        report, _ = asyncio.run(_serve_and_drive(tmp_path, ChaosConfig(), inst))
        assert report.n_acked == FAST["n"]
        assert report.n_errors == 0
        assert report.n_reconnects == 0
        assert report.assignments == baseline.assignments
        assert report.assignments_digest == baseline.assignments_digest

    def test_duplicate_delivery_is_idempotent(self, tmp_path):
        """The satellite case: heavy at-least-once duplication on both
        directions, yet every task dispatches exactly once."""
        inst = _fast_instance()
        baseline = run_loopback_sync(inst, ServeConfig(m=FAST["m"]), target_rate=FAST["rate"])
        chaos = ChaosConfig(seed=13, p_duplicate=0.3)
        report, stats = asyncio.run(_serve_and_drive(tmp_path, chaos, inst))
        assert report.n_acked == FAST["n"]
        assert report.n_errors == 0
        # Duplicated submit frames reached the dispatcher's doorstep but
        # were answered from the dedupe cache: dispatch count stays n.
        assert stats["dispatched"] == FAST["n"]
        dedupe_hits = stats["metrics"]["counters"].get("dedupe_hits_total", 0)
        assert dedupe_hits > 0 or report.n_dup_acks > 0
        assert report.assignments == baseline.assignments
        assert report.assignments_digest == baseline.assignments_digest

    def test_lossy_transport_recovers_same_digest(self, tmp_path):
        inst = _fast_instance()
        baseline = run_loopback_sync(inst, ServeConfig(m=FAST["m"]), target_rate=FAST["rate"])
        chaos = ChaosConfig(seed=5, p_drop=0.03, p_truncate=0.02, p_corrupt=0.03, p_duplicate=0.05)
        resilience = ClientResilience(ack_timeout=0.5, breaker_cooldown=0.05)
        report, _ = asyncio.run(_serve_and_drive(tmp_path, chaos, inst, resilience=resilience))
        assert report.n_acked == FAST["n"]
        assert report.n_errors == 0
        assert report.n_reconnects > 0  # the chaos actually bit
        assert report.assignments_digest == baseline.assignments_digest

    def test_dead_endpoint_exhausts(self, tmp_path):
        inst = _fast_instance(n=4)
        resilience = ClientResilience(
            retry=RetryPolicy(retries=2, backoff=0.01, max_backoff=0.02),
            ack_timeout=0.2,
            breaker_cooldown=0.01,
        )
        with pytest.raises(ResilienceExhausted):
            asyncio.run(
                drive(
                    inst,
                    socket_path=str(tmp_path / "nobody-home.sock"),
                    resilience=resilience,
                )
            )

    def test_second_drive_is_not_answered_from_first_drive_cache(self, tmp_path):
        """Two drives with equal tids against one service: every submit
        is keyed, yet no ack of the second drive comes from the first
        drive's dedupe cache — the service refuses the reused tids
        itself instead of replaying another run's placements."""
        first_inst = _fast_instance(seed=1, n=50)
        second_inst = _fast_instance(seed=2, n=50)
        config = ServeConfig(
            m=FAST["m"], journal_dir=str(tmp_path / "wal"), journal_fsync="never"
        )

        async def go():
            service = build_service(config)
            await service.start()
            path = str(tmp_path / "serve.sock")
            server = await start_endpoint(service.connection, socket_path=path)
            try:
                async with server:
                    first = await drive(first_inst, socket_path=path)
                    second = await drive(second_inst, socket_path=path)
                    return first, second, service.stats()
            finally:
                await service.stop()

        first, second, stats = asyncio.run(go())
        assert first.n_errors == 0
        assert first.n_dispatched == 50
        assert stats["journal"]["dedupe_keys"] == 50  # the first drive keyed its submits
        assert stats["metrics"]["counters"].get("dedupe_hits_total", 0) == 0
        assert stats["dispatched"] == 50
        eligible = {t.tid: t.eligible(FAST["m"]) for t in second_inst}
        assert all(machine in eligible[tid] for tid, machine in second.assignments)
        assert second.n_errors == 50

    def test_endpoint_arguments_validated(self):
        with pytest.raises(ValueError, match="exactly one"):
            asyncio.run(drive(_fast_instance(n=1)))

    def test_mid_stream_close_leaves_no_unretrieved_task_exception(self, tmp_path):
        """A server that stops reading and then drops the connection
        fails the sender (in ``drain``) and the receiver (EOF) in the
        same wakeup; both task exceptions must be retrieved, so the
        loop's exception handler never hears of either."""
        path = str(tmp_path / "closer.sock")
        tasks = tuple(Task(tid=i, release=0.0, proc=0.01) for i in range(4000))
        resilience = ClientResilience(
            retry=RetryPolicy(retries=1, backoff=0.01, max_backoff=0.01),
            ack_timeout=5.0,
            breaker_cooldown=0.01,
        )
        contexts = []

        async def close_mid_stream(reader, writer):
            await asyncio.sleep(0.2)  # the client fills the socket buffers
            writer.transport.abort()

        async def go():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: contexts.append(context)
            )
            server = await asyncio.start_unix_server(close_mid_stream, path=path)
            async with server:
                with pytest.raises(ResilienceExhausted):
                    await drive(
                        Instance(m=2, tasks=tasks), socket_path=path, resilience=resilience
                    )
            gc.collect()  # frees the finished tasks while the handler is set
            await asyncio.sleep(0)

        asyncio.run(go())
        assert [context.get("message") for context in contexts] == []


def test_cli_drive_unreachable_endpoint_is_one_line(tmp_path, monkeypatch):
    """``repro drive`` against a missing socket exits with one
    ``drive: ...`` line once its retries run out, not a traceback."""
    from repro.cli import main
    from repro.serve import driver

    fast = ClientResilience(
        retry=RetryPolicy(retries=1, backoff=0.01, max_backoff=0.01),
        breaker_cooldown=0.01,
    )
    monkeypatch.setattr(driver, "ClientResilience", lambda: fast)
    with pytest.raises(SystemExit) as exc:
        main(["drive", "--socket", str(tmp_path / "missing.sock"), "--n", "5"])
    message = exc.value.code
    assert isinstance(message, str)
    assert message.startswith("drive: 0/5 acked after 2 consecutive failed")
    assert "\n" not in message
