"""Write-ahead journal of dispatcher state transitions.

The serving tier's crash-recovery backbone: every state-changing
operation the frontend applies to a :class:`~repro.serve.dispatcher.
Dispatcher` — submit, kill, revive, failure-path redispatch, rebalance
``apply_placement``, and the service-layer ``complete`` — is appended
to an on-disk journal *before* it is acknowledged, so a process that
dies mid-drive can be rebuilt exactly by replaying the log
(:func:`recover` / :meth:`Dispatcher.recover`).

The dispatcher is a *virtual-clocked pure function of its operation
stream* (release stamps, not wall clocks, decide placements), which is
what makes operation-log recovery byte-exact: the journal records the
**inputs** of every transition, replay re-derives the identical
decisions, and a recovered run's assignment digest equals an
uninterrupted run's.  Wall-clocked inputs that do leak into decisions
(the ``now`` of a kill-path redispatch or a revive) are captured in the
record, so replay sees the same values the live path used.

Format — one JSONL record per line::

    {"v": 1, "seq": n, "kind": "...", "data": {...}, "crc": c}

``crc`` is the CRC-32 of the canonical JSON of the envelope without the
``crc`` field, so torn writes are detected structurally *and* by
checksum.  A corrupt or truncated **tail** record is the signature of a
crash mid-append: it is dropped, counted, and never replayed.  A
corrupt record *before* intact ones cannot be produced by a crash and
raises :class:`JournalCorruptError` — silent mid-log data loss must not
recover quietly.

Durability is batched: :meth:`Journal.append` buffers, :meth:`Journal.
commit` flushes and (policy permitting) fsyncs.  The frontend commits
before acking state-changing ops (write-ahead), while ``complete``
records ride the batch — losing a tail ``complete`` merely re-serves an
idempotent unit of simulated work (exactly-once *dispatch*,
at-least-once *service*).

Snapshots bound replay time: :meth:`Journal.write_snapshot` atomically
persists a full state dict (``snapshot.json``, temp-file + rename) and
compacts the WAL down to the records after it.  Recovery loads the
snapshot, then replays the suffix.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "JOURNAL_VERSION",
    "Journal",
    "JournalCorruptError",
    "JournalError",
    "JournalRecord",
    "Recovery",
    "decode_record",
    "encode_record",
    "recover",
    "replay_records",
]

JOURNAL_VERSION = 1

#: fsync policies: "commit" fsyncs on every :meth:`Journal.commit`,
#: "batch" only when the batch counter overflows, "never" flushes to the
#: OS but leaves syncing to the kernel (tests, throwaway runs).
FSYNC_POLICIES = ("commit", "batch", "never")

_WAL = "wal.jsonl"
_SNAPSHOT = "snapshot.json"


class JournalError(RuntimeError):
    """Raised on journal misuse or an unrecoverable journal state."""


class JournalCorruptError(JournalError):
    """Raised when a record *before* intact ones fails validation —
    corruption a crash cannot explain."""


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One decoded journal record."""

    seq: int
    kind: str
    data: Mapping[str, Any]


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical(envelope: dict[str, Any]) -> str:
    return _CANONICAL.encode(envelope)


def _crc(envelope: dict[str, Any]) -> int:
    return zlib.crc32(_canonical(envelope).encode("utf-8"))


def encode_record(seq: int, kind: str, data: Mapping[str, Any]) -> str:
    """Serialise one record to its JSONL line (no trailing newline):
    the canonical envelope without ``crc`` is the CRC input and, as
    ``crc`` sorts first, the rest of the line after ``{"crc":c,``."""
    if not isinstance(data, dict):
        data = dict(data)
    body = _canonical({"v": JOURNAL_VERSION, "seq": seq, "kind": kind, "data": data})
    return '{"crc":%d,' % zlib.crc32(body.encode("utf-8")) + body[1:]


def decode_record(line: str) -> JournalRecord:
    """Parse and validate one JSONL line.

    Raises :class:`JournalCorruptError` on anything malformed: bad
    JSON, missing fields, wrong version, or a CRC mismatch.
    """
    try:
        envelope = json.loads(line)
    except json.JSONDecodeError as exc:
        raise JournalCorruptError(f"undecodable journal line: {exc}") from exc
    if not isinstance(envelope, dict):
        raise JournalCorruptError(
            f"journal line must be an object, got {type(envelope).__name__}"
        )
    try:
        v = envelope["v"]
        seq = envelope["seq"]
        kind = envelope["kind"]
        data = envelope["data"]
        crc = envelope["crc"]
    except KeyError as exc:
        raise JournalCorruptError(f"journal record missing field {exc}") from exc
    if v != JOURNAL_VERSION:
        raise JournalCorruptError(f"journal version {v!r} unsupported (this end writes v{JOURNAL_VERSION})")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
        raise JournalCorruptError(f"journal record seq must be a positive int, got {seq!r}")
    if not isinstance(kind, str) or not isinstance(data, dict):
        raise JournalCorruptError("journal record kind/data ill-typed")
    if crc != _crc({"v": v, "seq": seq, "kind": kind, "data": data}):
        raise JournalCorruptError(f"journal record seq={seq} failed its CRC check")
    return JournalRecord(seq=seq, kind=kind, data=data)


@dataclass
class _Scan:
    """Outcome of reading a WAL file back."""

    records: list[JournalRecord] = field(default_factory=list)
    n_dropped_tail: int = 0


def _scan_wal(path: Path, base_seq: int) -> _Scan:
    """Read every intact record of ``path`` (seq > ``base_seq``).

    The final record is allowed to be torn (crash mid-append): it is
    dropped and counted.  Corruption anywhere earlier raises.
    """
    scan = _Scan()
    if not path.exists():
        return scan
    raw = path.read_bytes().decode("utf-8", errors="replace")
    lines = raw.split("\n")
    # A well-formed WAL ends with a newline, leaving one trailing empty
    # chunk; anything after the last newline is a torn tail.
    torn_tail = lines[-1] != ""
    body = lines[:-1]
    last_seq = base_seq
    for idx, line in enumerate(body):
        at_tail = torn_tail is False and idx == len(body) - 1
        try:
            record = decode_record(line)
            if record.seq != last_seq + 1:
                raise JournalCorruptError(
                    f"journal sequence gap: expected seq={last_seq + 1}, found {record.seq}"
                )
        except JournalCorruptError:
            if at_tail:
                scan.n_dropped_tail += 1
                return scan
            raise
        scan.records.append(record)
        last_seq = record.seq
    if torn_tail:
        scan.n_dropped_tail += 1
    return scan


class Journal:
    """Append-only, CRC-framed, snapshot-compacted operation log.

    Parameters
    ----------
    root:
        Directory holding ``wal.jsonl`` and ``snapshot.json`` (created
        if missing).
    fsync:
        ``"commit"`` (default: fsync on every :meth:`commit`),
        ``"batch"`` (fsync every ``batch_records`` appends) or
        ``"never"``.
    batch_records:
        Batch size of the ``"batch"`` policy.
    """

    def __init__(self, root: str | Path, fsync: str = "commit", batch_records: int = 64) -> None:
        if fsync not in FSYNC_POLICIES:
            raise JournalError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        if batch_records < 1:
            raise JournalError(f"batch_records must be >= 1, got {batch_records}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.batch_records = batch_records
        self._wal_path = self.root / _WAL
        self._snapshot_path = self.root / _SNAPSHOT
        self.snapshot_state: dict[str, Any] | None = None
        self.snapshot_seq = 0
        self.n_dropped_tail = 0
        self._loaded: list[JournalRecord] = self._load()
        self.seq = self._loaded[-1].seq if self._loaded else self.snapshot_seq
        self._fh = open(self._wal_path, "a", encoding="utf-8")
        self._unsynced = 0

    # -- reading back --------------------------------------------------------
    def _load(self) -> list[JournalRecord]:
        if self._snapshot_path.exists():
            try:
                envelope = json.loads(self._snapshot_path.read_text("utf-8"))
                crc = envelope.pop("crc")
                if crc != _crc(envelope) or envelope.get("v") != JOURNAL_VERSION:
                    raise JournalCorruptError("snapshot failed its CRC/version check")
                self.snapshot_seq = int(envelope["seq"])
                self.snapshot_state = envelope["state"]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise JournalCorruptError(f"unreadable snapshot: {exc}") from exc
        scan = _scan_wal(self._wal_path, self.snapshot_seq)
        self.n_dropped_tail = scan.n_dropped_tail
        if scan.n_dropped_tail:
            # Rewrite the WAL without the torn tail so the next append
            # lands on a clean boundary.
            self._rewrite_wal(scan.records)
        return scan.records

    @property
    def has_state(self) -> bool:
        """Whether recovery has anything to rebuild from."""
        return self.snapshot_state is not None or self.seq > 0

    def records(self) -> Iterator[JournalRecord]:
        """The intact records after the snapshot, as read back when the
        journal was opened (appended records are on disk only)."""
        return iter(list(self._loaded))

    # -- appending -----------------------------------------------------------
    def append(self, kind: str, data: Mapping[str, Any], commit: bool = False) -> int:
        """Buffer one record; returns its sequence number."""
        if self._fh.closed:
            raise JournalError("journal is closed")
        self.seq += 1
        line = encode_record(self.seq, kind, data)
        self._fh.write(line + "\n")
        self._unsynced += 1
        if commit or (self.fsync == "batch" and self._unsynced >= self.batch_records):
            self.commit()
        return self.seq

    def commit(self) -> None:
        """Flush buffered records; fsync when the policy asks for it."""
        if self._fh.closed:
            return
        self._fh.flush()
        if self.fsync == "commit" or (
            self.fsync == "batch" and self._unsynced >= self.batch_records
        ):
            os.fsync(self._fh.fileno())
        self._unsynced = 0

    # -- snapshots + compaction ----------------------------------------------
    def write_snapshot(self, state: Mapping[str, Any]) -> None:
        """Atomically persist ``state`` at the current seq and compact
        the WAL: every record is covered by the snapshot, so the WAL
        restarts empty."""
        envelope: dict[str, Any] = {
            "v": JOURNAL_VERSION,
            "seq": self.seq,
            "state": dict(state),
        }
        envelope["crc"] = _crc(envelope)
        tmp = self._snapshot_path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(_canonical(envelope))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._snapshot_path)
        self.snapshot_state = dict(state)
        self.snapshot_seq = self.seq
        self._fh.close()
        self._rewrite_wal([])
        self._loaded = []
        self._fh = open(self._wal_path, "a", encoding="utf-8")
        self._unsynced = 0

    def _rewrite_wal(self, records: list[JournalRecord]) -> None:
        tmp = self._wal_path.with_suffix(".jsonl.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write(encode_record(r.seq, r.kind, r.data) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._wal_path)

    def close(self) -> None:
        if not self._fh.closed:
            self.commit()
            self._fh.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# -- replay -------------------------------------------------------------------


@dataclass
class Recovery:
    """Everything a restarted service needs to resume.

    ``dedupe`` maps every journaled submit's dedupe key to the decision
    replay re-derived for it, so a retried (duplicate) submit is
    answered with its original outcome instead of being re-dispatched.
    ``completed`` holds the tids whose service finished pre-crash;
    anything placed but not in it is still owed wall-clock service.
    """

    dispatcher: Any
    seq: int = 0
    n_replayed: int = 0
    n_dropped_tail: int = 0
    n_replay_errors: int = 0
    completed: set[int] = field(default_factory=set)
    dedupe: dict[str, Any] = field(default_factory=dict)
    n_completed: int = 0

    def pending(self) -> list[tuple[int, int]]:
        """``(tid, machine)`` of every placed-but-unfinished task, in
        tid order — the work a recovered service must re-enqueue."""
        d = self.dispatcher
        return [
            (tid, machine)
            for tid, (machine, _start) in sorted(d.placements.items())
            if tid not in self.completed
        ]


def replay_records(
    records: Iterator[JournalRecord] | list[JournalRecord],
    dispatcher: Any,
    recovery: Recovery,
) -> None:
    """Apply ``records`` to ``dispatcher`` in order, absorbing their
    effects into ``recovery`` (shared by :func:`recover` and tests that
    replay hand-built streams)."""
    from .protocol import task_from_wire

    for record in records:
        recovery.seq = record.seq
        recovery.n_replayed += 1
        kind, data = record.kind, record.data
        try:
            if kind == "submit":
                task = task_from_wire(data["task"])
                decision = dispatcher.submit(task)
                key = data.get("dedupe")
                if key is not None:
                    recovery.dedupe[key] = decision
            elif kind == "kill":
                dispatcher.kill(int(data["machine"]))
            elif kind == "revive":
                dispatcher.revive(int(data["machine"]), float(data["now"]))
            elif kind == "redispatch":
                tid = int(data["tid"])
                task = dispatcher._tasks.get(tid)
                if task is None:
                    raise JournalCorruptError(
                        f"redispatch of unknown tid {tid} (journal suffix without its submit)"
                    )
                dispatcher.redispatch(task, float(data["now"]), reason=data.get("reason", "failure"))
            elif kind == "rebalance":
                dispatcher.apply_placement(
                    {int(u): frozenset(s) for u, s in data["old"].items()},
                    {int(u): frozenset(s) for u, s in data["new"].items()},
                    float(data["now"]),
                    warmup=float(data.get("warmup", 0.0)),
                    version=data.get("version"),
                )
            elif kind == "complete":
                tid = int(data["tid"])
                recovery.completed.add(tid)
                recovery.n_completed += 1
            else:
                raise JournalCorruptError(f"unknown journal record kind {kind!r}")
        except JournalCorruptError:
            raise
        except ValueError:
            # The live path hit the same validator (e.g. an out-of-order
            # release rejected by the scheduler) *after* journaling the
            # write-ahead record; the operation changed nothing then and
            # changes nothing now.
            recovery.n_replay_errors += 1


def recover(
    journal: Journal,
    make_dispatcher: Callable[[], Any],
    restore_state: Callable[[Any, Mapping[str, Any]], None] | None = None,
) -> Recovery:
    """Rebuild a dispatcher from ``journal``.

    ``make_dispatcher`` builds the blank dispatcher (same scheduler /
    admission / metrics wiring as the crashed process — recovery
    re-derives decisions, so the wiring must match).  When the journal
    holds a snapshot it is loaded first via ``restore_state`` (defaults
    to the dispatcher's own ``load_state_dict``), then the WAL suffix
    replays on top.
    """
    dispatcher = make_dispatcher()
    recovery = Recovery(dispatcher=dispatcher, n_dropped_tail=journal.n_dropped_tail)
    if journal.snapshot_state is not None:
        state = journal.snapshot_state
        if restore_state is not None:
            restore_state(dispatcher, state["dispatcher"])
        else:
            dispatcher.load_state_dict(state["dispatcher"])
        service = state.get("service", {})
        recovery.completed = set(int(t) for t in service.get("completed", []))
        recovery.n_completed = int(service.get("n_completed", len(recovery.completed)))
        from .protocol import task_from_wire  # local: journal stays protocol-light

        from .dispatcher import DispatchDecision

        for key, wire in service.get("dedupe", {}).items():
            recovery.dedupe[key] = DispatchDecision(
                task=task_from_wire(wire["task"]),
                status=wire["status"],
                machine=wire.get("machine"),
                start=wire.get("start"),
                est_flow=wire.get("est_flow"),
                reason=wire.get("reason"),
            )
        recovery.seq = journal.snapshot_seq
    replay_records(journal.records(), dispatcher, recovery)
    return recovery
