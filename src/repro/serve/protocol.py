"""Wire protocol of the dispatch service: length-prefixed JSON frames.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding one message object.  The framing is
deliberately minimal — any language can speak it with a socket and a
JSON library — and symmetric: requests and responses use the same
encoding.

Requests are objects with an ``op`` field:

``{"op": "ping"}``
    liveness probe; answered with ``{"ok": true, "op": "pong", "now": t}``
    where ``t`` is the service's current *virtual* time.
``{"op": "submit", "tid": i, "release": r, "proc": p,
  "machine_set": [..] | null, "key": k | null, "dedupe": d | null}``
    one request of the online stream (the wire form of
    :class:`repro.core.task.Task`); answered immediately with the
    dispatch decision — the service never blocks a submit on service
    completion.  ``dedupe`` (optional) is an idempotency key: a repeat
    submit carrying a key the service has already decided is answered
    with the *original* decision and dispatches nothing, so a client
    retrying over a lossy link can never double-dispatch.
``{"op": "stats"}``
    answered with the live metrics snapshot and service counters.
``{"op": "drain"}``
    blocks until every dispatched request has finished service.
``{"op": "shutdown"}``
    acknowledges, then stops the server.

Every response carries ``"ok"`` (``false`` plus an ``"error"`` string
when the request could not be handled — a malformed task, an
out-of-order release — so one bad request never tears down the
connection).

Versioning: a message may carry a ``"v"`` field naming the protocol
version it speaks.  Frames without ``"v"`` are treated as the current
version (the pre-versioning wire form stays valid); frames carrying a
*different* version are answered with an error response that names
both versions, so a router and a shard built from different revisions
detect the skew on the first frame instead of mis-parsing each other
(:func:`check_version`, :func:`versioned`).

Servers answer frames from the transport callback of a
:class:`FrameConnection`; clients use :func:`read_frame`/:func:`write_frame`.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import math
import struct
from typing import Any

from ..core.task import Task

__all__ = [
    "FrameConnection",
    "FrameTooLargeError",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "check_version",
    "decode_frame",
    "encode_frame",
    "parse_length",
    "read_frame",
    "validate_length",
    "task_from_wire",
    "task_to_wire",
    "version_error",
    "versioned",
    "write_frame",
]

PROTOCOL_VERSION = 1

#: Frames above this size are rejected — a corrupted length prefix must
#: not make the reader allocate gigabytes.
MAX_FRAME = 1 << 20

_HEADER = struct.Struct(">I")
_COMPACT = json.JSONEncoder(separators=(",", ":"))


class ProtocolError(ValueError):
    """Raised on malformed frames or messages."""


class FrameTooLargeError(ProtocolError):
    """A declared (or encoded) frame length exceeds :data:`MAX_FRAME`.

    Typed separately from the generic :class:`ProtocolError` so callers
    can distinguish an adversarial/corrupt length prefix — which must
    never turn into an unbounded read — from ordinary framing damage."""


def parse_length(header: bytes) -> int:
    """Validate a length prefix and return the frame body length.

    The wire prefix is a 4-byte big-endian unsigned int, but this
    accepts any ``bytes`` of the right size and enforces the full
    contract: a short/long header, a non-integer or negative length
    (possible if a future transport hands lengths around out-of-band)
    is a :class:`ProtocolError`; a length beyond :data:`MAX_FRAME` is a
    :class:`FrameTooLargeError` — the reader must refuse to allocate,
    not attempt the read.
    """
    if len(header) != _HEADER.size:
        raise ProtocolError(f"frame header must be {_HEADER.size} bytes, got {len(header)}")
    (length,) = _HEADER.unpack(header)
    return validate_length(length)


def validate_length(length: object) -> int:
    """The length-prefix contract on an already-decoded value."""
    if isinstance(length, bool) or not isinstance(length, int):
        raise ProtocolError(f"frame length must be an int, got {type(length).__name__}")
    if length < 0:
        raise ProtocolError(f"frame length must be >= 0, got {length}")
    if length > MAX_FRAME:
        raise FrameTooLargeError(f"declared frame length {length} exceeds MAX_FRAME={MAX_FRAME}")
    return length


def encode_frame(message: dict[str, Any]) -> bytes:
    """Serialise ``message`` to one wire frame (header + JSON body)."""
    body = _COMPACT.encode(message).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise FrameTooLargeError(f"frame of {len(body)} bytes exceeds MAX_FRAME={MAX_FRAME}")
    return _HEADER.pack(len(body)) + body


def decode_frame(body: bytes) -> dict[str, Any]:
    """Parse a frame body (the bytes after the length prefix)."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"frame body must be a JSON object, got {type(message).__name__}")
    return message


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame; ``None`` on a clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError("connection closed mid-header") from exc
    length = parse_length(header)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return decode_frame(body)


async def write_frame(writer: asyncio.StreamWriter, message: dict[str, Any]) -> None:
    """Encode and send one frame, waiting for the transport to drain."""
    writer.write(encode_frame(message))
    await writer.drain()


class FrameConnection(asyncio.Protocol):
    """The server side of one connection: each frame goes to the
    synchronous ``handle(message)`` and its response is written from
    the same transport callback.  ``handle`` may return an awaitable
    (``drain``); later frames are held back until it resolves, so
    responses keep request order.  A framing error calls ``on_error()``
    once, answers one error frame and closes; ``shutdown`` is answered,
    sets ``stop_event`` and closes.  Paused writing pauses reading."""

    def __init__(self, handle, on_error, stop_event: asyncio.Event | None = None) -> None:
        self._handle = handle
        self._on_error = on_error
        self._stop_event = stop_event
        self._buf = bytearray()
        self._transport: asyncio.Transport | None = None
        self._held: asyncio.Future | None = None
        self._eof = False

    def connection_made(self, transport) -> None:
        self._transport = transport

    def connection_lost(self, exc: Exception | None) -> None:
        if self._held is not None:
            self._held.cancel()

    def pause_writing(self) -> None:
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._transport.resume_reading()

    def data_received(self, data: bytes) -> None:
        self._buf += data
        self._process()

    def eof_received(self) -> bool:
        self._eof = True
        self._process()
        return True  # the transport closes once held frames are answered

    def _process(self) -> None:
        buf, transport = self._buf, self._transport
        while self._held is None and not transport.is_closing() and len(buf) >= _HEADER.size:
            try:
                end = _HEADER.size + validate_length(_HEADER.unpack_from(buf)[0])
                if len(buf) < end:
                    break
                message = decode_frame(buf[_HEADER.size : end])
            except ProtocolError as exc:
                self._fail(exc)  # an oversize body is never buffered
                return
            del buf[:end]
            response = self._handle(message)
            if inspect.isawaitable(response):
                self._held = asyncio.ensure_future(response)
                self._held.add_done_callback(lambda held: self._release(message, held))
                return
            self._respond(message, response)
        if self._eof and self._held is None and not transport.is_closing():
            if buf:
                where = "header" if len(buf) < _HEADER.size else "frame"
                self._fail(ProtocolError(f"connection closed mid-{where}"))
            transport.close()

    def _respond(self, message: dict[str, Any], response: dict[str, Any]) -> None:
        self._transport.write(encode_frame(response))
        if message.get("op") == "shutdown":
            if self._stop_event is not None:
                self._stop_event.set()
            self._transport.close()

    def _release(self, message: dict[str, Any], held: asyncio.Future) -> None:
        self._held = None
        if held.cancelled() or self._transport.is_closing():
            return
        self._respond(message, held.result())
        self._process()

    def _fail(self, exc: ProtocolError) -> None:
        self._on_error()
        self._transport.write(encode_frame({"ok": False, "error": str(exc)}))
        self._transport.close()


def versioned(message: dict[str, Any]) -> dict[str, Any]:
    """Copy of ``message`` stamped with the current protocol version."""
    return {"v": PROTOCOL_VERSION, **message}


def check_version(message: dict[str, Any]) -> str | None:
    """Version-mismatch complaint for ``message``, or ``None`` if it is
    speakable.  Messages without a ``"v"`` field pass (implicit current
    version); any other value than :data:`PROTOCOL_VERSION` fails."""
    v = message.get("v")
    if v is None or v == PROTOCOL_VERSION:
        return None
    return f"protocol version mismatch: peer speaks v{v!r}, this end speaks v{PROTOCOL_VERSION}"


def version_error(message: dict[str, Any], complaint: str) -> dict[str, Any]:
    """The error response for a version-mismatched request — carries
    this end's version so the peer can log both sides of the skew."""
    return {
        "ok": False,
        "op": message.get("op"),
        "v": PROTOCOL_VERSION,
        "error": complaint,
    }


def task_to_wire(task: Task) -> dict[str, Any]:
    """The ``submit`` payload for ``task`` (sans the ``op`` field)."""
    return {
        "tid": task.tid,
        "release": task.release,
        "proc": task.proc,
        "machine_set": None if task.machines is None else sorted(task.machines),
        "key": task.key,
    }


def task_from_wire(message: dict[str, Any]) -> Task:
    """Build the :class:`Task` of a ``submit`` message.

    Raises :class:`ProtocolError` on missing or ill-typed fields (the
    :class:`Task` validators catch the value errors: negative release,
    non-positive proc, empty or out-of-range machine sets).
    """
    try:
        tid = int(message["tid"])
        release = float(message["release"])
        proc = float(message["proc"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed submit message: {exc}") from exc
    # Python's json module happily emits and parses NaN/Infinity, and
    # the Task validators don't catch NaN (``nan < 0`` is false), so
    # non-finite stamps must be rejected at the wire boundary.
    if not math.isfinite(release):
        raise ProtocolError(f"non-finite release {release!r}")
    if not math.isfinite(proc):
        raise ProtocolError(f"non-finite proc {proc!r}")
    machine_set = message.get("machine_set")
    if machine_set is not None:
        try:
            machine_set = frozenset(int(j) for j in machine_set)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed machine_set: {exc}") from exc
    key = message.get("key")
    try:
        return Task(
            tid=tid,
            release=release,
            proc=proc,
            machines=machine_set,
            key=None if key is None else int(key),
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
