"""Byte pins of the live service over a unix socket.

Each service is driven through one fixed sequence of frames and fault
calls: submits with and without dedupe keys (and retries of them),
rejected frames, a kill that redispatches queued work and parks the
rest, and a revive that unparks it; the sharded service also answers
``route``, ``detach-shard`` and ``reattach-shard``.  The pins are
sha256 digests of the response frames, of the ``stats`` payload
without ``now`` and the wall-time fields, and of the counters and
gauges of ``registry().snapshot()``.

``time_scale`` is large enough that no request finishes while the
sequence runs, so every pinned value is a function of the sequence
alone: lanes only hold work, and kills displace a fixed queue.
"""

import asyncio
import hashlib
import json

import pytest

from repro.core.task import Task
from repro.serve import ServeConfig, build_service, read_frame, task_to_wire, write_frame
from repro.serve.frontend import start_endpoint

#: wall seconds per virtual unit: the shortest request holds its
#: machine for 500 s, far beyond the test's lifetime.
TIME_SCALE = 1000.0


def _submit(tid, release, proc, machines, dedupe=None):
    task = Task(tid=tid, release=release, proc=proc, machines=frozenset(machines))
    frame = {"op": "submit", **task_to_wire(task)}
    if dedupe is not None:
        frame["dedupe"] = dedupe
    return ("frame", frame)


def _op(op, **fields):
    return ("frame", {"op": op, **fields})


def _sequence(faults, dedupe=True):
    """The pinned steps.  ``faults(kind, machine)`` is how a kill or a
    revive reaches the service; ``dedupe`` includes the steps whose
    answer depends on the dedupe cache: retries of keyed submits and
    a key of the wrong type."""
    steps = [
        _submit(0, 0.0, 1.0, {1, 2}, dedupe="a"),
        _submit(1, 0.1, 2.0, {2}),
        _submit(2, 0.2, 3.0, {3}, dedupe="b"),
        _submit(3, 0.3, 1.0, {2, 3}),
        _submit(4, 0.4, 1.0, {2}),
        _submit(5, 0.5, 0.5, {4}, dedupe="c"),
    ]
    if dedupe:
        steps += [
            _submit(0, 0.0, 1.0, {1, 2}, dedupe="a"),
            _submit(2, 0.2, 3.0, {3}, dedupe="b"),
            ("frame", {"op": "submit", "tid": 90, "release": 0.6, "proc": 1.0, "dedupe": 5}),
        ]
    steps += [
        ("frame", {"op": "submit", "tid": 91, "release": 0.6}),
        _op("frobnicate"),
        faults("kill", 2),
        _submit(6, 0.6, 1.0, {2, 4}, dedupe="d"),
        _submit(7, 0.7, 1.0, {2}),
        faults("kill", 3),
        _submit(8, 0.8, 0.5, {3}),
    ]
    if dedupe:
        steps.append(_submit(5, 0.5, 0.5, {4}, dedupe="c"))
    steps += [
        faults("revive", 2),
        _submit(9, 0.9, 1.0, {2, 3}),
        faults("revive", 3),
        _submit(10, 1.0, 0.5, {1, 2, 3, 4}, dedupe="e"),
    ]
    return steps


def _single_steps(dedupe=True):
    """Kills and revives are method calls; the router-only ops are
    sent too and must be refused like any unknown op."""
    steps = _sequence(lambda kind, machine: ("call", kind, machine), dedupe)
    return steps + [_op("route"), _op("detach-shard", shard=0)]


def _sharded_steps(dedupe=True):
    """Kills and revives travel as ops, with the router's own ops
    around them: a bad kill, the plan, and a shard detached while a
    submit it owns arrives."""
    steps = _sequence(lambda kind, machine: _op(kind, machine=machine), dedupe)
    return steps + [
        _op("kill", machine=99),
        _op("kill"),
        _op("route"),
        _op("detach-shard", shard=1),
        _submit(11, 1.1, 1.0, {3, 4}),
        _submit(12, 1.2, 1.0, {4}),
        _op("detach-shard", shard=1),
        _op("reattach-shard", shard=1),
        _op("reattach-shard", shard=7),
    ]


def _single():
    return build_service(ServeConfig(m=4, time_scale=TIME_SCALE))


def _sharded():
    return build_service(ServeConfig(m=4, shards=2, time_scale=TIME_SCALE))


def _sha(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _without_wall_time(stats):
    stats = dict(stats)
    del stats["now"]
    metrics = dict(stats["metrics"])
    metrics["histograms"] = {
        name: hist
        for name, hist in metrics["histograms"].items()
        if not name.endswith("wall_flow")
    }
    stats["metrics"] = metrics
    return stats


def _drive(make, steps, tmp_path):
    """Run ``steps`` against a fresh service; return the digests of
    the responses, the stats payload and the registry."""

    async def go():
        service = make()
        await service.start()
        try:
            path = str(tmp_path / "pin.sock")
            server = await start_endpoint(service.connection, socket_path=path)
            async with server:
                reader, writer = await asyncio.open_unix_connection(path)
                responses = []
                for step in steps:
                    if step[0] == "call":
                        getattr(service, step[1])(step[2])
                        continue
                    await write_frame(writer, step[1])
                    responses.append(await read_frame(reader))
                await write_frame(writer, {"op": "stats"})
                stats = (await read_frame(reader))["stats"]
                writer.close()
                await writer.wait_closed()
            snapshot = service.registry().snapshot()
        finally:
            await service.stop()
        registry = {"counters": snapshot["counters"], "gauges": snapshot["gauges"]}
        return _sha(responses), _sha(_without_wall_time(stats)), _sha(registry)

    return asyncio.run(go())


PINS = {
    "single": (
        "516719c06ee2496f0986330f18f0603d5b47e8e733a411819171d35ad2f74a78",
        "f918cfd24137028af8fe0799848f6794ca5d472509e2f5b35520c519b09fad33",
        "bdb91096f930c0099e9d77eee82d3bd3ffeef79ed9ec5c148995e502d14af82a",
    ),
    "single-no-dedupe": (
        "6bb17ba7292487160c1df15943075bacca1e1b71b99a0dfdf68784a75556e657",
        "54b610d4ad8a392620f03e009c36769c0b02e5b47b460ebc2a4bd0beb7544002",
        "db69709b997ca62946bd04267010fd83bdf952e1a0e4d84ce13200fed29f07ec",
    ),
    # Dedupe covers the router core too: its retries are answered from
    # the cache and the non-string key is refused.  "sharded-no-dedupe"
    # leaves those steps out.
    "sharded": (
        "b0ea79a2065ea05ce05c9204ecdd45ca02f579f2fc97d17d54d0e7da6bfb9b47",
        "cf2e966cbc0de8065bf4d401ccbe5e29a5299fb58fa3378ff733fa6c52f9d194",
        "2dd85d393f94912ef9f396f6f6962f5701f9d5a184d08e87defbc552e5064c79",
    ),
    "sharded-no-dedupe": (
        "a09207e566cd976335bc8a1e40019937304c6166d4d4346b31ec4db089abc473",
        "10fbd66c617dd74663073a32a96712ab6ad5e4fafa0e70e214b4734698e393bf",
        "f3d29d3b02e2d6d852331f795274354ff3466248dae0d74d3ce605bccd18103e",
    ),
}

CASES = {
    "single": (_single, _single_steps),
    "single-no-dedupe": (_single, lambda: _single_steps(dedupe=False)),
    "sharded": (_sharded, _sharded_steps),
    "sharded-no-dedupe": (_sharded, lambda: _sharded_steps(dedupe=False)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_service_pins(case, tmp_path):
    make, steps = CASES[case]
    assert _drive(make, steps(), tmp_path) == PINS[case]
