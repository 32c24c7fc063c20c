"""Integration tests: the sharded service over a loopback socket.

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
    ShardServeConfig,
    build_drive_instance,
    build_sharded_service,
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
    """Run ``fn(service, socket_path)`` against a started sharded
    service listening on a unix socket in a temp dir."""
    import tempfile
    from pathlib import Path

    service = build_sharded_service(config)
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

        config = ShardServeConfig(m=FAST["m"], shards=3, align_k=FAST["k"])
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

        config = ShardServeConfig(m=6, shards=3, align_k=2)
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

        config = ShardServeConfig(m=4, shards=2)
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

        config = ShardServeConfig(m=6, shards=2)
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

        config = ShardServeConfig(m=4, shards=2)
        drained = asyncio.run(_with_service(config, go))
        assert drained["completed"] == 1

    def test_fleet_stats_rollup_members(self):
        inst = _fast_instance(n=30)

        async def go(service, socket_path):
            report = await drive(inst, socket_path=socket_path, time_scale=1.0)
            return report, service.stats()

        config = ShardServeConfig(m=FAST["m"], shards=3, align_k=FAST["k"])
        report, stats = asyncio.run(_with_service(config, go))
        counters = stats["metrics"]["counters"]
        assert counters["dispatched_total"] == 30
        per_shard = [counters.get(f"shard{s}/dispatched_total", 0) for s in range(3)]
        assert sum(per_shard) == 30
        assert stats["completed"] == 30

    def test_config_validation(self):
        with pytest.raises(ValueError, match="shard"):
            ShardServeConfig(m=4, shards=0)
        with pytest.raises(ValueError, match="time_scale"):
            ShardServeConfig(m=4, shards=2, time_scale=0.0)
        config = ShardServeConfig(m=4, shards=2, intervals=((1, 1), (2, 4)))
        assert config.make_plan().intervals == ((1, 1), (2, 4))
