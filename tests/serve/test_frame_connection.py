"""The server side of the wire protocol: :class:`FrameConnection`.

The service answers frames through the same callback connection over
either decision core, so every test runs against a single dispatcher
(errors counted in ``errors_total``) and a router (errors counted in
its ``n_errors``).  All async tests run their own event loop via
``asyncio.run`` (no asyncio pytest plugin, matching the rest of the
serve suite).
"""

import asyncio
import struct

import pytest

from repro.core.task import Task
from repro.serve import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    ServeConfig,
    build_service,
    encode_frame,
    read_frame,
    task_to_wire,
)
from repro.serve.frontend import start_endpoint


def _single():
    service = build_service(ServeConfig(m=2, time_scale=0.05))
    return service, lambda: service.dispatcher.metrics.errors.value


def _sharded():
    service = build_service(ServeConfig(m=2, shards=2, time_scale=0.05))
    return service, lambda: service.dispatcher.n_errors


SERVICES = pytest.mark.parametrize("make", [_single, _sharded], ids=["single", "sharded"])


def _run(make, tmp_path, fn):
    """Run ``fn(service, errors, reader, writer)`` over one connection
    to a started service on a unix socket."""

    async def go():
        service, errors = make()
        await service.start()
        try:
            path = str(tmp_path / "s.sock")
            server = await start_endpoint(service.connection, socket_path=path)
            async with server:
                reader, writer = await asyncio.open_unix_connection(path)
                try:
                    return await fn(service, errors, reader, writer)
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, BrokenPipeError):
                        pass
        finally:
            await service.stop()

    return asyncio.run(go())


def _submit(tid, release, proc=0.1):
    return encode_frame({"op": "submit", **task_to_wire(Task(tid=tid, release=release, proc=proc))})


@SERVICES
def test_frames_in_one_write_are_answered_in_order(make, tmp_path):
    async def fn(service, errors, reader, writer):
        writer.write(
            encode_frame({"op": "ping"})
            + _submit(0, 0.0)
            + _submit(1, 0.5)
            + encode_frame({"op": "stats"})
        )
        responses = [await read_frame(reader) for _ in range(4)]
        assert [r["op"] for r in responses] == ["pong", "submit", "submit", "stats"]
        assert [responses[1]["tid"], responses[2]["tid"]] == [0, 1]
        assert all(r["ok"] for r in responses)
        assert errors() == 0

    _run(make, tmp_path, fn)


@SERVICES
def test_drain_holds_back_later_frames(make, tmp_path):
    async def fn(service, errors, reader, writer):
        # 2 units at 0.05 s/unit: the drain waits ~0.1 s of service.
        writer.write(
            _submit(0, 0.0, proc=2.0) + encode_frame({"op": "drain"}) + encode_frame({"op": "ping"})
        )
        submit, drain, pong = [await read_frame(reader) for _ in range(3)]
        assert submit["op"] == "submit" and submit["ok"]
        assert drain == {"ok": True, "op": "drain", "completed": 1}
        assert pong["op"] == "pong"
        assert pong["now"] >= 1.9  # answered only after the service finished

    _run(make, tmp_path, fn)


@SERVICES
@pytest.mark.parametrize(
    "torn", [b"\x00\x00", struct.pack(">I", 10) + b"abc"], ids=["header", "body"]
)
def test_torn_frame_at_eof_counts_one_error(make, tmp_path, torn):
    async def fn(service, errors, reader, writer):
        writer.write(encode_frame({"op": "ping"}) + torn)
        writer.write_eof()
        assert (await read_frame(reader))["op"] == "pong"
        err = await read_frame(reader)
        assert err["ok"] is False and "closed mid-" in err["error"]
        assert await read_frame(reader) is None
        assert errors() == 1

    _run(make, tmp_path, fn)


@SERVICES
def test_clean_eof_counts_no_error(make, tmp_path):
    async def fn(service, errors, reader, writer):
        writer.write(encode_frame({"op": "ping"}))
        writer.write_eof()
        assert (await read_frame(reader))["op"] == "pong"
        assert await read_frame(reader) is None
        assert errors() == 0

    _run(make, tmp_path, fn)


@SERVICES
def test_oversize_length_is_refused_and_closes(make, tmp_path):
    async def fn(service, errors, reader, writer):
        writer.write(struct.pack(">I", MAX_FRAME + 1) + b"{}")
        err = await read_frame(reader)
        assert err["ok"] is False and "exceeds MAX_FRAME" in err["error"]
        assert await read_frame(reader) is None
        assert errors() == 1

    _run(make, tmp_path, fn)


@SERVICES
def test_version_mismatch_is_rejected(make, tmp_path):
    async def fn(service, errors, reader, writer):
        writer.write(encode_frame({"v": PROTOCOL_VERSION + 1, "op": "ping"}))
        err = await read_frame(reader)
        assert err["ok"] is False and err["v"] == PROTOCOL_VERSION
        assert "version mismatch" in err["error"]
        writer.write(encode_frame({"op": "ping"}))  # the connection survives
        assert (await read_frame(reader))["ok"]
        assert errors() == 1

    _run(make, tmp_path, fn)


class _Transport(asyncio.Transport):
    def __init__(self):
        super().__init__()
        self.calls = []
        self.written = []

    def pause_reading(self):
        self.calls.append("pause")

    def resume_reading(self):
        self.calls.append("resume")

    def write(self, data):
        self.written.append(data)

    def is_closing(self):
        return False


@SERVICES
def test_paused_transport_pauses_reading(make):
    service, _ = make()
    connection = service.connection()
    transport = _Transport()
    connection.connection_made(transport)
    connection.pause_writing()
    assert transport.calls == ["pause"]
    connection.resume_writing()
    assert transport.calls == ["pause", "resume"]
    # Frames split across callbacks are reassembled.
    frame = encode_frame({"op": "ping"})
    connection.data_received(frame[:3])
    assert transport.written == []
    connection.data_received(frame[3:])
    assert len(transport.written) == 1
