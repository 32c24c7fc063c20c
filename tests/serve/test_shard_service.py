"""Integration tests: the service over a router core, on a loopback socket.

All async tests run their own event loop via ``asyncio.run`` (no
asyncio pytest plugin, matching the rest of the serve suite).
"""

import asyncio

import pytest

from repro.core.task import Task
from repro.serve.frontend import start_endpoint
from repro.serve import (
    PROTOCOL_VERSION,
    ServeConfig,
    ShardPlan,
    build_drive_instance,
    build_service,
    drive,
    read_frame,
    run_loopback_sync,
    task_to_wire,
    write_frame,
)

FAST = dict(m=6, n=60, rate=400.0, k=2, strategy="disjoint", proc=0.004, seed=42)


def _fast_instance(**overrides):
    return build_drive_instance(**{"source": "spec", **FAST, **overrides})


async def _with_service(config, fn):
    """Run ``fn(service, socket_path)`` against a started service
    listening on a unix socket in a temp dir."""
    import tempfile
    from pathlib import Path

    service = build_service(config)
    await service.start()
    try:
        with tempfile.TemporaryDirectory(prefix="repro-shard-test-") as tmp:
            socket_path = str(Path(tmp) / "shard.sock")
            server = await start_endpoint(service.connection, socket_path=socket_path)
            async with server:
                return await fn(service, socket_path)
    finally:
        await service.stop()


class TestShardedService:
    def test_drive_matches_single_dispatcher(self):
        """The sharded frontend serves the standard driver unchanged
        and, on a disjoint plan, places exactly like one dispatcher."""
        inst = _fast_instance()

        async def go(service, socket_path):
            return await drive(inst, socket_path=socket_path, time_scale=1.0)

        config = ServeConfig(m=FAST["m"], shards=3, align_k=FAST["k"])
        report = asyncio.run(_with_service(config, go))
        single = run_loopback_sync(inst, ServeConfig(m=FAST["m"]), target_rate=FAST["rate"])
        assert report.n_errors == 0
        assert report.n_acked == report.n_sent == FAST["n"]
        assert report.assignments_digest == single.assignments_digest

    def test_route_op_returns_plan(self):
        async def go(service, socket_path):
            reader, writer = await asyncio.open_unix_connection(socket_path)
            await write_frame(writer, {"op": "route"})
            response = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            return response

        config = ServeConfig(m=6, shards=3, align_k=2)
        response = asyncio.run(_with_service(config, go))
        assert response["ok"]
        plan = ShardPlan.from_json(response["plan"])
        assert plan.intervals == ((1, 2), (3, 4), (5, 6))

    def test_version_mismatch_rejected_current_accepted(self):
        async def go(service, socket_path):
            reader, writer = await asyncio.open_unix_connection(socket_path)
            await write_frame(writer, {"op": "ping", "v": PROTOCOL_VERSION + 1})
            mismatched = await read_frame(reader)
            await write_frame(writer, {"op": "ping", "v": PROTOCOL_VERSION})
            current = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            return mismatched, current

        config = ServeConfig(m=4, shards=2)
        mismatched, current = asyncio.run(_with_service(config, go))
        assert mismatched["ok"] is False
        assert "version mismatch" in mismatched["error"]
        assert mismatched["v"] == PROTOCOL_VERSION  # this end's version echoed
        assert current["ok"] and current["op"] == "pong"

    def test_kill_revive_ops_cross_shard_handoff(self):
        """Fault injection through the router frontend: killing the
        whole owner-side fragment of a straddling set hands the next
        submit off to the neighbour shard."""

        async def go(service, socket_path):
            reader, writer = await asyncio.open_unix_connection(socket_path)

            async def rpc(message):
                await write_frame(writer, message)
                return await read_frame(reader)

            killed = await rpc({"op": "kill", "machine": 3})
            assert killed["ok"]
            submit = await rpc(
                {"op": "submit", **task_to_wire(
                    Task(tid=0, release=0.0, proc=0.004, machines=frozenset({3, 4}))
                )}
            )
            assert submit["ok"]
            assert submit["machine"] == 4
            assert submit["shard"] == 1 and submit["handoff"] is True
            revived = await rpc({"op": "revive", "machine": 3})
            assert revived["ok"] and revived["unparked"] == 0
            stats = (await rpc({"op": "stats"}))["stats"]
            drained = await rpc({"op": "drain"})
            assert drained["ok"]
            writer.close()
            await writer.wait_closed()
            return stats

        config = ServeConfig(m=6, shards=2)
        stats = asyncio.run(_with_service(config, go))
        assert stats["handoffs"] == 1
        assert stats["metrics"]["counters"]["router/router_handoffs_total"] == 1

    def test_whole_set_down_parks_then_revive_completes(self):
        async def go(service, socket_path):
            reader, writer = await asyncio.open_unix_connection(socket_path)

            async def rpc(message):
                await write_frame(writer, message)
                return await read_frame(reader)

            await rpc({"op": "kill", "machine": 1})
            await rpc({"op": "kill", "machine": 2})
            parked = await rpc(
                {"op": "submit", **task_to_wire(
                    Task(tid=0, release=0.0, proc=0.004, machines=frozenset({1, 2}))
                )}
            )
            assert parked["status"] == "parked"
            revived = await rpc({"op": "revive", "machine": 2})
            assert revived["unparked"] == 1
            drained = await rpc({"op": "drain"})
            writer.close()
            await writer.wait_closed()
            return drained

        config = ServeConfig(m=4, shards=2)
        drained = asyncio.run(_with_service(config, go))
        assert drained["completed"] == 1

    def test_fleet_stats_rollup_members(self):
        inst = _fast_instance(n=30)

        async def go(service, socket_path):
            report = await drive(inst, socket_path=socket_path, time_scale=1.0)
            return report, service.stats()

        config = ServeConfig(m=FAST["m"], shards=3, align_k=FAST["k"])
        report, stats = asyncio.run(_with_service(config, go))
        counters = stats["metrics"]["counters"]
        assert counters["dispatched_total"] == 30
        per_shard = [counters.get(f"shard{s}/dispatched_total", 0) for s in range(3)]
        assert sum(per_shard) == 30
        assert stats["completed"] == 30

    def test_config_validation(self):
        with pytest.raises(ValueError, match="shard"):
            ServeConfig(m=4, shards=0)
        with pytest.raises(ValueError, match="time_scale"):
            ServeConfig(m=4, shards=2, time_scale=0.0)
        with pytest.raises(ValueError, match="shards=3"):
            ServeConfig(m=4, shards=3, intervals=((1, 1), (2, 4)))
        with pytest.raises(ValueError, match="journal"):
            ServeConfig(m=4, shards=2, journal_dir="wal")
        config = ServeConfig(m=4, shards=2, intervals=((1, 1), (2, 4)))
        assert config.make_plan().intervals == ((1, 1), (2, 4))

    def test_dedupe_retry_answered_from_cache(self):
        """A retried keyed submit gets the original answer and is not
        routed again."""

        async def go(service, socket_path):
            reader, writer = await asyncio.open_unix_connection(socket_path)

            async def rpc(message):
                await write_frame(writer, message)
                return await read_frame(reader)

            frame = {
                "op": "submit",
                "dedupe": "k",
                **task_to_wire(Task(tid=0, release=0.0, proc=0.004, machines=frozenset({3}))),
            }
            first, retry = await rpc(frame), await rpc(frame)
            writer.close()
            await writer.wait_closed()
            return first, retry, service.stats()

        first, retry, stats = asyncio.run(_with_service(ServeConfig(m=4, shards=2), go))
        assert first["ok"] and first["shard"] == 1
        assert retry == first
        assert stats["routed"] == 1
        assert stats["metrics"]["counters"]["dedupe_hits_total"] == 1


class TestOneOpTable:
    """The single dispatcher answers the ops it can serve (``kill``,
    ``revive``) and refuses the router's like any unknown op."""

    def test_single_dispatcher_ops(self):
        async def go(service, socket_path):
            reader, writer = await asyncio.open_unix_connection(socket_path)

            async def rpc(message):
                await write_frame(writer, message)
                return await read_frame(reader)

            responses = [
                await rpc({"op": "kill", "machine": 2}),
                await rpc({"op": "kill", "machine": 9}),
                await rpc({"op": "revive", "machine": 2}),
                await rpc({"op": "route"}),
                await rpc({"op": "reattach-shard", "shard": 0}),
                await rpc({"op": "ping"}),
            ]
            writer.close()
            await writer.wait_closed()
            return responses, service.stats()

        responses, stats = asyncio.run(_with_service(ServeConfig(m=2), go))
        killed, bad, revived, route, reattach, pong = responses
        assert killed == {"ok": True, "op": "kill", "displaced": 0}
        assert bad == {"ok": False, "op": "kill", "error": "machine 9 outside 1..2"}
        assert revived == {"ok": True, "op": "revive", "unparked": 0}
        assert route == {"ok": False, "error": "unknown op 'route'"}
        assert reattach == {"ok": False, "error": "unknown op 'reattach-shard'"}
        assert pong["shards"] == 1
        counters = stats["metrics"]["counters"]
        assert counters["machine_kills_total"] == counters["machine_revives_total"] == 1
        assert counters["errors_total"] == 3


def test_cli_refuses_a_sharded_journal(tmp_path):
    """``--journal`` with more than one shard is a one-line error, not
    a traceback, and leaves no journal behind."""
    from repro.cli import main

    wal = tmp_path / "wal"
    for argv in (
        ["serve", "--shards", "2"],
        ["serve-sharded"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--socket", str(tmp_path / "s.sock"), "--journal", str(wal)])
        assert exc.value.code == (
            f"{argv[0]}: the journal covers a single dispatcher; it cannot be used with shards=2"
        )
    assert not wal.exists()
