"""Byte pins of the journal encoder and the recovered service state.

The WAL is an on-disk format: a recovered process must read what an
older build wrote, and compaction rewrites records through the same
encoder.  These tests pin the exact bytes of a fixed operation
sequence (every record kind, dedupe keys with and without non-ASCII
text), the canonical JSON of the service snapshot state recovered from
it, and a virtual-time metrics snapshot of the dispatcher, so an
encoder or recorder change that moves a single byte fails here.  A
Hypothesis property also compares :func:`encode_record` with a
two-pass reference encoder kept in this file.
"""

import hashlib
import json
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns.trace import make_scheduler
from repro.core.task import Task
from repro.obs.snapshot import metrics_snapshot, metrics_to_json
from repro.serve import Journal, ServeConfig, build_service
from repro.serve.admission import AdmissionController
from repro.serve.dispatcher import Dispatcher
from repro.serve.driver import build_drive_instance
from repro.serve.journal import JOURNAL_VERSION, decode_record, encode_record
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import task_to_wire

# Captured with the two-pass encoder this file keeps as its reference.
WAL_BYTES = 1348
WAL_SHA256 = "0fbded89547be27fb06af79a6e31bc020ebede0ce563029337ae106573c2e788"
STATE_SHA256 = "4fdbfb3482f34cde752e1886157b0c5a7a586888a5ac1082dbdf12be5653f9cf"
METRICS_SHA256 = "ee66a90a5f6c863244c6dfb9ba13fe96a310103a922d1924d7f9427c565c3cf8"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_sequence(root) -> bytes:
    """Append the pinned operation sequence, with the commit flags the
    service uses, and return the WAL bytes."""
    tasks = [
        Task(tid=0, release=0.0, proc=1.0, machines=frozenset({1, 2})),
        Task(tid=1, release=0.1, proc=2.0, machines=frozenset({2})),
        Task(tid=2, release=0.25, proc=0.5, key=7),
        Task(tid=3, release=0.3, proc=1.5, machines=frozenset({2, 3})),
        Task(tid=4, release=2.0, proc=0.75, machines=frozenset({3, 4})),
    ]
    dedupe = [None, "k-1", "clé-ü✓", "k-3", None]
    with Journal(root, fsync="never") as journal:
        for task, key in zip(tasks[:4], dedupe):
            journal.append("submit", {"task": task_to_wire(task), "dedupe": key}, commit=True)
        journal.append("kill", {"machine": 2, "now": 0.5}, commit=True)
        journal.append("redispatch", {"tid": 1, "now": 0.5}, commit=True)
        journal.append("redispatch", {"tid": 3, "now": 0.5}, commit=True)
        journal.append("revive", {"machine": 2, "now": 1.25}, commit=True)
        journal.append(
            "rebalance",
            {
                "old": {"1": [1, 2], "3": [3, 4]},
                "new": {"1": [1, 3], "3": [3, 4]},
                "now": 1.5,
                "warmup": 0.25,
                "version": 1,
            },
            commit=True,
        )
        journal.append("complete", {"tid": 0})
        journal.append("complete", {"tid": 2})
        journal.append(
            "submit", {"task": task_to_wire(tasks[4]), "dedupe": dedupe[4]}, commit=True
        )
    return (root / "wal.jsonl").read_bytes()


class TestWalPins:
    def test_wal_bytes(self, tmp_path):
        wal = _write_sequence(tmp_path)
        assert len(wal) == WAL_BYTES
        assert _sha(wal) == WAL_SHA256

    def test_recovered_snapshot_state(self, tmp_path):
        _write_sequence(tmp_path)
        service = build_service(ServeConfig(m=4, journal_dir=str(tmp_path), journal_fsync="never"))
        try:
            state = service._snapshot_state()
        finally:
            service.journal.close()
        canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
        assert _sha(canonical.encode("utf-8")) == STATE_SHA256

    def test_snapshot_compaction_keeps_the_state(self, tmp_path):
        """A snapshot taken at the end of the sequence recovers the
        same state with an empty WAL suffix."""
        _write_sequence(tmp_path)
        config = ServeConfig(m=4, journal_dir=str(tmp_path), journal_fsync="never")
        service = build_service(config)
        service.journal.write_snapshot(service._snapshot_state())
        service.journal.close()
        assert (tmp_path / "wal.jsonl").read_bytes() == b""
        again = build_service(config)
        try:
            canonical = json.dumps(again._snapshot_state(), sort_keys=True, separators=(",", ":"))
        finally:
            again.journal.close()
        assert _sha(canonical.encode("utf-8")) == STATE_SHA256


class TestMetricsPin:
    def test_shadow_metrics_snapshot(self):
        """Virtual-time dispatch with admission, parks and revivals: the
        decision-path recorders snapshot to pinned bytes."""
        inst = build_drive_instance(m=6, n=400, rate=500.0, k=2, proc=0.01, seed=3)
        metrics = ServeMetrics()
        dispatcher = Dispatcher(
            make_scheduler("eft-min", 6, seed=0),
            admission=AdmissionController(max_queue_depth=4),
            metrics=metrics,
        )
        for i, task in enumerate(inst):
            if i == 150:
                dispatcher.kill(4)
                dispatcher.kill(5)
            if i == 300:
                dispatcher.revive(5, task.release)
                dispatcher.revive(4, task.release)
            dispatcher.submit(task)
        text = metrics_to_json(metrics_snapshot(metrics.registry))
        assert _sha(text.encode("utf-8")) == METRICS_SHA256


def _reference_encode(seq, kind, data):
    """The two-pass encoder: CRC over the canonical envelope without
    ``crc``, then the canonical envelope with it."""
    canonical = lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":"))  # noqa: E731
    envelope = {"v": JOURNAL_VERSION, "seq": seq, "kind": kind, "data": dict(data)}
    envelope["crc"] = zlib.crc32(canonical(envelope).encode("utf-8"))
    return canonical(envelope)


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)
_payloads = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(_scalars, st.lists(_scalars, max_size=4), st.dictionaries(st.text(max_size=5), _scalars, max_size=3)),
    max_size=6,
)


class TestEncoderProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        seq=st.integers(min_value=1, max_value=2**40),
        kind=st.text(min_size=1, max_size=12),
        data=_payloads,
    )
    def test_matches_two_pass_reference(self, seq, kind, data):
        line = encode_record(seq, kind, data)
        assert line == _reference_encode(seq, kind, data)
        record = decode_record(line)
        assert (record.seq, record.kind) == (seq, kind)
        assert record.data == json.loads(json.dumps(data))
