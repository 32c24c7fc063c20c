"""Unit tests for the event queue."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EFT, eft_schedule
from repro.simulation import Event, EventKind, EventQueue, Simulator
from repro.simulation.events import _KIND_PRIORITY
from tests.conftest import unrestricted_instances

#: The pinned same-instant firing order, spelled out independently of
#: the table it checks.
FIRING_ORDER = (
    EventKind.MACHINE_UP,
    EventKind.COMPLETE,
    EventKind.RESUME,
    EventKind.START,
    EventKind.MACHINE_DOWN,
    EventKind.RELEASE,
    EventKind.PREEMPT,
    EventKind.OBSERVE,
)
WORK_KINDS = frozenset(FIRING_ORDER) - {
    EventKind.OBSERVE,
    EventKind.MACHINE_DOWN,
    EventKind.MACHINE_UP,
}


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.push(3.0, EventKind.RELEASE, "c")
        q.push(1.0, EventKind.RELEASE, "a")
        q.push(2.0, EventKind.RELEASE, "b")
        assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_stable_within_time(self):
        """Simultaneous events fire in scheduling order (the adversary
        batches rely on it)."""
        q = EventQueue()
        for i in range(10):
            q.push(1.0, EventKind.RELEASE, i)
        assert [q.pop().payload for _ in range(10)] == list(range(10))

    def test_peek(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(5.0, EventKind.OBSERVE)
        assert q.peek_time() == 5.0
        assert len(q) == 1

    def test_bool(self):
        q = EventQueue()
        assert not q
        q.push(0.0, EventKind.COMPLETE)
        assert q

    def test_has_work(self):
        q = EventQueue()
        assert not q.has_work()
        q.push(1.0, EventKind.OBSERVE)
        assert not q.has_work()
        q.push(2.0, EventKind.RELEASE)
        assert q.has_work()


class TestEventRecord:
    def test_pop_returns_the_tuple_record(self):
        q = EventQueue()
        pushed = q.push(2.5, EventKind.COMPLETE, "x")
        ev = q.pop()
        assert ev == pushed
        assert isinstance(ev, Event) and isinstance(ev, tuple)
        assert (ev.time, ev.kind, ev.payload) == (2.5, EventKind.COMPLETE, "x")
        assert ev.priority == _KIND_PRIORITY[EventKind.COMPLETE]

    def test_ordering_never_compares_payloads(self):
        """``seq`` is unique, so payloads that do not support ``<``
        (dicts, callbacks) are never compared, sifting or sorting."""
        q = EventQueue()
        for i in range(20):
            q.push(float(i % 3), EventKind.RELEASE, {"i": i})
        assert [ev.payload["i"] for ev in q.pending()] == sorted(
            range(20), key=lambda i: (i % 3, i)
        )
        assert [q.pop().payload["i"] for _ in range(20)] == sorted(
            range(20), key=lambda i: (i % 3, i)
        )


class TestSameInstantOrdering:
    """The pinned within-instant order of :data:`_KIND_PRIORITY`, FIFO
    within a kind."""

    def test_table_is_the_pinned_order(self):
        assert sorted(_KIND_PRIORITY, key=_KIND_PRIORITY.get) == list(FIRING_ORDER)
        assert set(_KIND_PRIORITY) == set(EventKind)

    def test_all_kinds_at_one_instant(self):
        q = EventQueue()
        # Scheduled in the *reverse* of the firing order.
        for kind in reversed(FIRING_ORDER):
            q.push(1.0, kind, kind.name)
        assert [ev.kind for ev in q.pending()] == list(FIRING_ORDER)
        assert [q.pop().payload for _ in FIRING_ORDER] == [k.name for k in FIRING_ORDER]

    def test_kind_priority_at_equal_time(self):
        q = EventQueue()
        # Scheduled in the *reverse* of the firing order.
        q.push(1.0, EventKind.OBSERVE, "observe")
        q.push(1.0, EventKind.RELEASE, "release")
        q.push(1.0, EventKind.COMPLETE, "complete")
        assert [q.pop().payload for _ in range(3)] == [
            "complete",
            "release",
            "observe",
        ]

    def test_priority_only_breaks_time_ties(self):
        q = EventQueue()
        q.push(2.0, EventKind.COMPLETE, "late-complete")
        q.push(1.0, EventKind.OBSERVE, "early-observe")
        assert q.pop().payload == "early-observe"

    def test_fifo_within_kind_at_equal_time(self):
        q = EventQueue()
        for i in range(5):
            q.push(1.0, EventKind.RELEASE, i)
        q.push(1.0, EventKind.COMPLETE, "c")
        assert q.pop().payload == "c"
        assert [q.pop().payload for _ in range(5)] == list(range(5))


class TestCoincidingTimesMatchAnalytic:
    """With completions firing before same-instant releases, the
    event-driven simulator reproduces the analytic EFT schedule even
    when a release coincides with a completion."""

    def _simulate(self, inst, tiebreak):
        sim = Simulator(EFT(inst.m, tiebreak=tiebreak))
        sim.add_instance(inst)
        return sim.run()

    def test_release_at_completion_instant(self):
        # m=1, unit tasks released at 0, 1, 1: task 0 completes at 1,
        # exactly when tasks 1 and 2 arrive.  The freed machine must be
        # visible to the same-instant dispatch.
        from repro.core import Instance, Task

        inst = Instance(
            m=1,
            tasks=(
                Task(tid=0, release=0.0, proc=1.0),
                Task(tid=1, release=1.0, proc=1.0),
                Task(tid=2, release=1.0, proc=1.0),
            ),
        )
        result = self._simulate(inst, "min")
        analytic = eft_schedule(inst, tiebreak="min")
        assert result.schedule.same_placements(analytic)
        for tid in (0, 1, 2):
            assert result.schedule.start_of(tid) == analytic.start_of(tid)

    @given(unrestricted_instances(unit=True, integral_releases=True))
    @settings(max_examples=60, deadline=None)
    def test_integral_unit_instances(self, inst):
        """Unit procs + integral releases maximise coinciding
        completion/release instants."""
        for tiebreak in ("min", "max"):
            result = self._simulate(inst, tiebreak)
            analytic = eft_schedule(inst, tiebreak=tiebreak)
            assert result.schedule.same_placements(analytic)


# -- model check --------------------------------------------------------------

_push = st.tuples(
    st.just("push"), st.integers(0, 4).map(float), st.sampled_from(FIRING_ORDER)
)
_ops = st.lists(
    st.one_of(_push, _push, _push, st.just(("pop",)), st.just(("clear",))),
    max_size=60,
)


class _SortedModel:
    """The reference: a list kept sorted on (time, pinned priority,
    insertion order)."""

    def __init__(self) -> None:
        self.items: list[tuple[float, int, int, EventKind]] = []
        self.inserted = 0

    def push(self, time: float, kind: EventKind) -> int:
        payload = self.inserted
        self.inserted += 1
        self.items.append((time, FIRING_ORDER.index(kind), payload, kind))
        self.items.sort()
        return payload

    def pop(self) -> tuple[float, EventKind, int]:
        time, _, payload, kind = self.items.pop(0)
        return time, kind, payload

    def view(self) -> list[tuple[float, EventKind, int]]:
        return [(time, kind, payload) for time, _, payload, kind in self.items]


def _check_against(q: EventQueue, model: _SortedModel) -> None:
    assert [(ev.time, ev.kind, ev.payload) for ev in q.pending()] == model.view()
    assert q.pending_kinds() == {kind for _, kind, _ in model.view()}
    assert q.has_work() == any(kind in WORK_KINDS for _, kind, _ in model.view())
    assert q.peek_time() == (model.items[0][0] if model.items else None)
    assert len(q) == len(model.items)
    assert bool(q) == bool(model.items)


class TestModelCheck:
    @given(_ops)
    @settings(max_examples=300, deadline=None)
    def test_random_interleavings_match_sorted_model(self, ops):
        q, model = EventQueue(), _SortedModel()
        for op in ops:
            if op[0] == "push":
                _, time, kind = op
                q.push(time, kind, model.push(time, kind))
            elif op[0] == "pop":
                if not model.items:
                    continue
                ev = q.pop()
                assert (ev.time, ev.kind, ev.payload) == model.pop()
            else:
                q.clear()
                model.items.clear()
            _check_against(q, model)
        while model.items:
            ev = q.pop()
            assert (ev.time, ev.kind, ev.payload) == model.pop()
        _check_against(q, model)

    @given(st.lists(_push, min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_pending_in_the_monotone_and_the_sorted_state(self, pushes):
        """Pushes in firing order keep the heap list in insertion order
        (``pending`` skips its sort); a pop or an out-of-order push
        switches to the sorted view.  Both must equal the model."""
        pushes = sorted(pushes, key=lambda p: (p[1], FIRING_ORDER.index(p[2])))
        q, model = EventQueue(), _SortedModel()
        for _, time, kind in pushes:
            q.push(time, kind, model.push(time, kind))
        assert q._monotone
        _check_against(q, model)
        ev = q.pop()
        assert (ev.time, ev.kind, ev.payload) == model.pop()
        assert q._monotone == (not model.items)
        _check_against(q, model)
        q.clear()
        model.items.clear()
        for _, time, kind in pushes:
            q.push(time, kind, model.push(time, kind))
        q.push(-1.0, EventKind.OBSERVE, model.push(-1.0, EventKind.OBSERVE))
        assert not q._monotone
        _check_against(q, model)
