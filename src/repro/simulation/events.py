"""Event primitives for the discrete-event simulator.

A minimal, allocation-light event core.  Every event is one plain
tuple ``(time, priority, seq, kind, payload)`` — an :class:`Event`
named tuple, so callers read ``.time``, ``.kind`` and ``.payload`` —
and the heap orders those tuples natively: by time, then by a fixed
per-kind priority, then by a monotone sequence number.  ``seq`` is
unique, so a comparison never reaches ``kind`` or ``payload``.

The within-instant order is pinned by :data:`_KIND_PRIORITY`: at
equal times

    MACHINE_UP < COMPLETE < RESUME < START < MACHINE_DOWN < RELEASE
    < PREEMPT < OBSERVE

and events of the same kind fire in scheduling order (FIFO).
Completions-first (among work events) means a machine that frees up at
:math:`t` is already idle when a task released at :math:`t` is
dispatched — matching the analytic driver, where starts satisfy
:math:`\\sigma_i = \\max(r_i, \\text{avail}_j)` with no notion of event
order.  Releases-before-observers means an OBSERVE callback always
sees the settled state of its instant (collectors sample after
same-time arrivals; adversaries inject *after* the instant's natural
events, in scheduling order).  The FIFO tie-break within a kind is
what the paper's adversaries rely on (tasks released "in order" at the
same instant).

The fault events bracket the instant's work: a machine recovering at
:math:`t` (MACHINE_UP first) is usable by that instant's releases, a
task completing exactly when its machine fails (COMPLETE before
MACHINE_DOWN) counts as completed — the work was done by :math:`t` —
and a task released at the failure instant (MACHINE_DOWN before
RELEASE) already sees the machine as dead.  A machine freed by a
preemption is re-filled (RESUME) before the instant's failures and
releases, and the preemption checks themselves (PREEMPT) run once the
whole same-instant release batch has dispatched.
"""

from __future__ import annotations

import heapq
import itertools
from enum import Enum, auto
from typing import Any, NamedTuple

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(Enum):
    """Kinds of simulator events."""

    RELEASE = auto()  #: a task enters the system
    START = auto()  #: a machine begins processing a task
    COMPLETE = auto()  #: a machine finishes a task
    OBSERVE = auto()  #: a user/adversary callback fires
    MACHINE_DOWN = auto()  #: a machine fails (fault injection)
    MACHINE_UP = auto()  #: a failed machine recovers
    PREEMPT = auto()  #: re-evaluate a machine's running task (preemptive policies)
    RESUME = auto()  #: restart a machine freed by a preemption

    # Members are singletons compared by identity, so the identity hash
    # is exact — and C-level, unlike Enum's name hash, which every
    # priority lookup on the push path would otherwise pay.
    __hash__ = object.__hash__


#: Same-instant firing order (lower fires first): recoveries make
#: machines usable, completions free machines (a completion at the
#: exact failure instant still counts — the work was done), resumes
#: behave like starts (a machine freed by a preemption at :math:`t` is
#: re-filled before the instant's failures and releases), failures
#: take machines out *before* the instant's releases dispatch,
#: preemption checks fire after the *whole* same-instant release batch
#: has dispatched (one deterministic re-evaluation per machine, not
#: one per arrival), then observers see the settled instant.
_KIND_PRIORITY: dict[EventKind, int] = {
    EventKind.MACHINE_UP: 0,
    EventKind.COMPLETE: 1,
    EventKind.RESUME: 2,
    EventKind.START: 3,
    EventKind.MACHINE_DOWN: 4,
    EventKind.RELEASE: 5,
    EventKind.PREEMPT: 6,
    EventKind.OBSERVE: 7,
}


class Event(NamedTuple):
    """A scheduled simulator event: a plain tuple ordered by time, then
    kind priority, then seq."""

    time: float
    priority: int
    seq: int
    kind: EventKind
    payload: Any = None


_new_event = tuple.__new__  # builds an Event without NamedTuple's Python-level __new__


class EventQueue:
    """Binary-heap event queue with the pinned within-time ordering of
    :data:`_KIND_PRIORITY`, FIFO within a kind."""

    _NON_WORK = frozenset({EventKind.OBSERVE, EventKind.MACHINE_DOWN, EventKind.MACHINE_UP})

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        #: True while the heap list is known to *be* the firing order:
        #: every push so far arrived in non-decreasing (time, priority)
        #: and nothing was popped.  Sorted pushes never sift, so the
        #: heap list stays in insertion order and :meth:`pending` can
        #: skip its O(n log n) sort — the common case for an instance
        #: fed release-sorted to a fresh simulator.
        self._monotone = True

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event; returns the event tuple."""
        heap = self._heap
        ev = _new_event(Event, (time, _KIND_PRIORITY[kind], next(self._counter), kind, payload))
        # seq only grows, so ev sorts below the tail iff its
        # (time, priority) does
        if self._monotone and heap and ev < heap[-1]:
            self._monotone = False
        heapq.heappush(heap, ev)
        return ev

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        heap = self._heap
        ev = heapq.heappop(heap)
        # popping reorders the heap list (the tail element moves to the
        # root), so insertion order is no longer the list order
        self._monotone = not heap
        return ev

    def peek_time(self) -> float | None:
        """Time of the earliest pending event, or ``None`` if empty."""
        return self._heap[0].time if self._heap else None

    def pending(self) -> list[Event]:
        """Every pending event in firing order (non-destructive).

        Used by the array backend to fast-forward: the sorted view is
        exactly the order the reference loop would pop, including the
        pinned same-instant priorities and the FIFO seq tie-break.
        """
        if self._monotone:
            return list(self._heap)
        return sorted(self._heap)

    def pending_kinds(self) -> set[EventKind]:
        """The distinct kinds currently queued (one scan; the array
        backend probes it once per fresh run)."""
        return {ev.kind for ev in self._heap}

    def clear(self) -> None:
        """Drop every pending event (the seq counter keeps running, so
        later pushes still order after everything ever scheduled)."""
        self._heap.clear()
        self._monotone = True

    def has_work(self) -> bool:
        """Whether any *work* event (anything but OBSERVE callbacks and
        fault transitions) is still pending."""
        non_work = self._NON_WORK
        return any(ev.kind not in non_work for ev in self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
