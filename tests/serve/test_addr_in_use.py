"""Tests for endpoint-contention handling: typed error, CLI exit code.

Unix sockets need special care: ``asyncio.start_unix_server`` silently
*unlinks* an existing socket path — even one with a live listener — so
the serve tier probes the path first and refuses to steal an active
endpoint, while still rebinding over a stale socket file left by a
dead process.
"""

import asyncio
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve import AddressInUseError, ServeConfig, serve
from repro.serve.frontend import start_endpoint


def _hold_unix(path):
    held = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    held.bind(str(path))
    held.listen(8)
    return held


class _NoopConnection(asyncio.Protocol):
    def connection_made(self, transport):
        transport.close()


class TestStartEndpoint:
    def test_unix_active_listener_refused(self, tmp_path):
        path = tmp_path / "busy.sock"
        held = _hold_unix(path)
        try:
            with pytest.raises(AddressInUseError) as info:
                asyncio.run(start_endpoint(_NoopConnection, socket_path=path))
            assert info.value.endpoint == str(path)
            # The endpoint was NOT stolen: the socket file still answers.
            assert path.exists()
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.connect(str(path))
            probe.close()
        finally:
            held.close()

    def test_unix_stale_socket_rebound(self, tmp_path):
        path = tmp_path / "stale.sock"
        _hold_unix(path).close()  # dead listener leaves the file behind
        assert path.exists()

        async def go():
            server = await start_endpoint(_NoopConnection, socket_path=path)
            server.close()
            await server.wait_closed()

        asyncio.run(go())  # no AddressInUseError

    def test_unix_plain_file_blocks_without_clobbering(self, tmp_path):
        # A regular file at the path is not a live listener, but bind
        # still fails EADDRINUSE (asyncio only unlinks *sockets*) — the
        # typed error fires and the file survives untouched.
        path = tmp_path / "not-a-socket"
        path.write_text("hello")
        with pytest.raises(AddressInUseError):
            asyncio.run(start_endpoint(_NoopConnection, socket_path=path))
        assert path.read_text() == "hello"

    def test_tcp_port_in_use_typed(self):
        held = socket.socket()
        held.bind(("127.0.0.1", 0))
        held.listen(8)
        port = held.getsockname()[1]
        try:
            with pytest.raises(AddressInUseError) as info:
                asyncio.run(start_endpoint(_NoopConnection, host="127.0.0.1", port=port))
            assert info.value.endpoint == f"127.0.0.1:{port}"
        finally:
            held.close()

    def test_serve_raises_typed_error(self, tmp_path):
        path = tmp_path / "busy.sock"
        held = _hold_unix(path)
        try:
            with pytest.raises(AddressInUseError):
                asyncio.run(serve(ServeConfig(m=2), socket_path=str(path)))
        finally:
            held.close()


class TestCLIExitCode:
    def _run_cli(self, *args):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )

    def test_serve_exits_4_on_busy_socket(self, tmp_path):
        path = tmp_path / "busy.sock"
        held = _hold_unix(path)
        try:
            proc = self._run_cli("serve", "--socket", str(path), "--m", "2")
        finally:
            held.close()
        assert proc.returncode == 4
        assert "address" in proc.stdout.lower() + proc.stderr.lower()
        assert "Traceback" not in proc.stderr

    def test_serve_sharded_exits_4_on_busy_port(self):
        held = socket.socket()
        held.bind(("127.0.0.1", 0))
        held.listen(8)
        port = held.getsockname()[1]
        try:
            proc = self._run_cli(
                "serve-sharded",
                "--host",
                "127.0.0.1",
                "--port",
                str(port),
                "--m",
                "4",
                "--shards",
                "2",
            )
        finally:
            held.close()
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
