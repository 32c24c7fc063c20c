"""Integration tests: the full serving stack over a loopback socket.

All async tests run their own event loop via ``asyncio.run`` (the
suite has no asyncio pytest plugin by design — no extra dependency).
"""

import asyncio

import pytest

from repro.faults.schedule import FaultSchedule
from repro.obs.snapshot import load_metrics, validate_metrics
from repro.core.task import Task
from repro.serve.frontend import start_endpoint
from repro.serve import (
    ServeConfig,
    build_drive_instance,
    build_service,
    run_loopback,
    run_loopback_sync,
)

# Tiny virtual procs keep wall time per test well under a second.
FAST = dict(m=4, n=40, rate=400.0, k=2, proc=0.004, seed=42)


def _fast_instance(**overrides):
    return build_drive_instance(**{"source": "spec", **FAST, **overrides})


class TestLoopback:
    def test_clean_run_no_drops(self, tmp_path):
        metrics_path = tmp_path / "serve.metrics.json"
        report = run_loopback_sync(
            _fast_instance(),
            ServeConfig(m=FAST["m"]),
            target_rate=FAST["rate"],
            metrics_path=metrics_path,
        )
        assert report.n_errors == 0
        assert report.n_acked == report.n_sent == FAST["n"]
        assert report.n_dispatched == FAST["n"]
        assert report.n_shed == report.n_parked == 0
        # Every dispatched request was actually served to completion.
        assert report.server_stats["completed"] == FAST["n"]
        assert report.server_stats["outstanding"] == 0
        # The snapshot on disk is a valid canonical metrics document.
        data = load_metrics(metrics_path)  # load_metrics validates the schema
        assert data["meta"]["source"] == "repro-serve-loopback"
        assert data["metrics"]["counters"]["dispatched_total"] == FAST["n"]
        assert data["metrics"]["counters"]["completed_total"] == FAST["n"]

    def test_assignments_identical_across_runs(self):
        """The acceptance check: same seed, same placements, twice."""
        reports = [
            run_loopback_sync(_fast_instance(), ServeConfig(m=FAST["m"]), target_rate=FAST["rate"])
            for _ in range(2)
        ]
        assert reports[0].assignments == reports[1].assignments
        assert reports[0].assignments_digest == reports[1].assignments_digest

    def test_matches_shadow_replay(self):
        """Live loopback placements == pure virtual-time replay."""
        from repro.campaigns.trace import make_scheduler
        from repro.serve import shadow_replay

        inst = _fast_instance()
        report = run_loopback_sync(inst, ServeConfig(m=FAST["m"]), target_rate=FAST["rate"])
        dispatcher, _ = shadow_replay(inst, make_scheduler("eft-min", FAST["m"], seed=0))
        assert dict(report.assignments) == {
            tid: machine for tid, (machine, _) in dispatcher.placements.items()
        }

    def test_slo_shedding_reported(self):
        """An absurdly tight SLO sheds everything after the first wave."""
        report = run_loopback_sync(
            _fast_instance(),
            ServeConfig(m=FAST["m"], slo=0.004),  # == proc: zero queueing allowed
            target_rate=FAST["rate"],
        )
        assert report.n_errors == 0
        assert report.n_shed > 0
        assert report.n_dispatched + report.n_shed == FAST["n"]
        assert set(report.shed_by_reason) == {"slo"}

    def test_kv_source(self):
        report = run_loopback_sync(
            _fast_instance(source="kv", n_keys=64),
            ServeConfig(m=FAST["m"]),
            target_rate=FAST["rate"],
        )
        assert report.n_errors == 0
        assert report.n_dispatched == FAST["n"]

    def test_faults_during_run(self):
        """A mid-run outage displaces work but loses nothing."""
        # Machine 1 down from virtual t=0.02 to well past the run's end.
        faults = FaultSchedule.build([(1, 0.02, 10.0)])
        report = run_loopback_sync(
            _fast_instance(n=60),
            ServeConfig(m=FAST["m"]),
            target_rate=FAST["rate"],
            faults=faults,
        )
        assert report.n_errors == 0
        assert report.n_acked == report.n_sent == 60
        # No parked requests (k=2 sets always intersect the 3 alive
        # machines), and every request completed despite the outage.
        assert report.n_parked == 0
        assert report.server_stats["completed"] == 60
        assert report.server_stats["alive"] == [2, 3, 4]


class TestServiceFaultSurface:
    def test_kill_displaces_revive_unparks(self):
        """Drive a ServeService directly: kill a machine with queued
        work, check the work survives; park a single-machine task and
        check a revive releases it."""

        async def go():
            service = build_service(ServeConfig(m=2, time_scale=0.02))
            await service.start()
            try:
                # Three tasks forced onto machine 1 (20 ms each).
                for i in range(3):
                    decision = service.submit(
                        Task(tid=i, release=0.0, proc=1.0, machines=frozenset({1}))
                    )
                    assert decision.status == "dispatched"
                await asyncio.sleep(0.005)  # let machine 1 pull one in flight
                displaced = service.kill(1)
                # The queued tail (machine-1-only) has nowhere to go: parked.
                assert displaced >= 2
                assert len(service.dispatcher.parked) == displaced
                # A fresh machine-1-only task also parks.
                parked = service.submit(
                    Task(tid=3, release=0.1, proc=1.0, machines=frozenset({1}))
                )
                assert parked.status == "parked"
                n_parked = len(service.dispatcher.parked)
                assert service.revive(1) == n_parked  # everything re-enters
                completed = await service.drain()
                assert completed == 4  # nothing was lost
                assert service.stats()["outstanding"] == 0
                assert service.dispatcher.parked == []
            finally:
                await service.stop()

        asyncio.run(go())

    def test_stats_shape(self):
        async def go():
            service = build_service(ServeConfig(m=3))
            await service.start()
            try:
                service.submit(Task(tid=0, release=0.0, proc=0.001))
                await service.drain()
                stats = service.stats()
                assert stats["m"] == 3
                assert stats["alive"] == [1, 2, 3]
                assert stats["dispatched"] == 1
                assert stats["completed"] == 1
                validate_metrics(
                    {
                        "format": "repro-metrics",
                        "version": 1,
                        "meta": {},
                        "metrics": stats["metrics"],
                    }
                )
            finally:
                await service.stop()

        asyncio.run(go())


class TestProtocolOverSocket:
    def test_ping_bad_op_and_malformed_submit(self, tmp_path):
        """Error paths over a real socket: bad ops answer ok=false and
        keep the connection; a framing error drops it."""
        from repro.serve import encode_frame, read_frame, write_frame

        async def go():
            service = build_service(ServeConfig(m=2))
            await service.start()
            socket_path = str(tmp_path / "serve.sock")

            server = await start_endpoint(service.connection, socket_path=socket_path)
            try:
                async with server:
                    reader, writer = await asyncio.open_unix_connection(socket_path)
                    await write_frame(writer, {"op": "ping"})
                    pong = await read_frame(reader)
                    assert pong["ok"] and pong["op"] == "pong"
                    await write_frame(writer, {"op": "warp"})
                    assert (await read_frame(reader))["ok"] is False
                    # Malformed submit: answered, connection survives.
                    await write_frame(writer, {"op": "submit", "tid": 0})
                    bad = await read_frame(reader)
                    assert bad["ok"] is False and "error" in bad
                    await write_frame(writer, {"op": "ping"})
                    assert (await read_frame(reader))["ok"]
                    writer.close()
                    await writer.wait_closed()

                    # A corrupt length prefix gets an error frame, then EOF.
                    reader, writer = await asyncio.open_unix_connection(socket_path)
                    writer.write(b"\xff\xff\xff\xff")
                    await writer.drain()
                    err = await read_frame(reader)
                    assert err["ok"] is False
                    assert await read_frame(reader) is None
                    writer.close()
                    await writer.wait_closed()
            finally:
                await service.stop()

        asyncio.run(go())

    def test_out_of_order_release_is_an_error_not_a_crash(self, tmp_path):
        """The scheduler's release-order contract surfaces as ok=false."""
        from repro.serve import read_frame, task_to_wire, write_frame

        async def go():
            service = build_service(ServeConfig(m=2))
            await service.start()
            socket_path = str(tmp_path / "serve.sock")

            server = await start_endpoint(service.connection, socket_path=socket_path)
            try:
                async with server:
                    reader, writer = await asyncio.open_unix_connection(socket_path)
                    t1 = Task(tid=0, release=5.0, proc=0.001)
                    t2 = Task(tid=1, release=1.0, proc=0.001)  # goes backwards
                    await write_frame(writer, {"op": "submit", **task_to_wire(t1)})
                    assert (await read_frame(reader))["ok"]
                    await write_frame(writer, {"op": "submit", **task_to_wire(t2)})
                    out_of_order = await read_frame(reader)
                    assert out_of_order["ok"] is False
                    # The service is still healthy afterwards.
                    await write_frame(writer, {"op": "ping"})
                    assert (await read_frame(reader))["ok"]
                    writer.close()
                    await writer.wait_closed()
            finally:
                await service.stop()

        asyncio.run(go())


class TestDriverValidation:
    def test_build_drive_instance_rejects_bad_args(self):
        with pytest.raises(ValueError):
            build_drive_instance(rate=0.0)
        with pytest.raises(ValueError):
            build_drive_instance(proc=-1.0)
        with pytest.raises(ValueError):
            build_drive_instance(source="quantum")

    def test_drive_needs_exactly_one_endpoint(self):
        from repro.serve import drive

        with pytest.raises(ValueError, match="exactly one"):
            asyncio.run(drive(_fast_instance()))
        with pytest.raises(ValueError, match="exactly one"):
            asyncio.run(
                drive(_fast_instance(), socket_path="/tmp/x.sock", host="127.0.0.1", port=1)
            )
