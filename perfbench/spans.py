"""In-memory spans recorded around calls into the program's layers.

A :class:`Tracer` records one :class:`Span` per call it wraps: name,
start, end, parent span and run id.  Spans stay in memory and are
written out once, at the end of a run (:meth:`Tracer.dump`).  Counts
are recorded at the same boundaries (:meth:`Tracer.count`).

A span's *self time* is its duration minus the part of its interval
that its child spans cover (:func:`self_time`).

:class:`Patches` installs wrappers on module attributes and restores
the originals on exit, so the untraced run calls the program exactly
as a user does.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable


@dataclass(frozen=True, slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus the part its children cover."""
    return span.duration - covered(((c.start, c.end) for c in children), span.start, span.end)


class Tracer:
    """Span and count recorder of one run."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int | None, name: str, start: float) -> None:
        end = self.clock()
        self._stack.pop()
        self.spans[sid] = Span(sid, name, start, end, parent, self.run_id)

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span named ``name``."""
        sid, parent = self._open()
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, parent, name, start)

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        after: Callable[..., None] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span.  ``name`` may be a function of the
        call's arguments; ``after(result, *args)`` records counts."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name(*args) if callable(name) else name
            result = self.call(label, fn, *args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        return traced

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def closed(self) -> list[Span]:
        """Every span whose call has returned."""
        return [s for s in self.spans if s is not None]

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.closed():
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, by span id."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {s.sid: self_time(s, children.get(s.sid, ())) for s in spans}


class Patches:
    """Context manager that sets module or class attributes and puts
    the originals back on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
