"""Self-time arithmetic and span bookkeeping."""

import pytest

from perfbench.spans import Patches, Span, Tracer, covered, self_time, self_times


def span(sid, start, end, parent=None, name="x"):
    return Span(sid, name, start, end, parent, "run")


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == pytest.approx(4.0)
    assert covered([(-5, 1), (9, 20)], 0, 10) == pytest.approx(2.0)
    assert covered([], 0, 10) == 0.0
    assert covered([(3, 3), (5, 4)], 0, 10) == 0.0


def test_self_time_on_a_hand_built_tree():
    # root [0, 10) has children [1, 3) and [2, 6) (overlapping: they
    # cover [1, 6)); child [2, 6) has a grandchild [3, 4).
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 3.0, parent=0),
        span(2, 2.0, 6.0, parent=0),
        span(3, 3.0, 4.0, parent=2),
        span(4, 8.0, 12.0, parent=0),  # runs past its parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(4.0)
    assert self_time(spans[0], []) == pytest.approx(10.0)


def test_tracer_records_parents_and_counts():
    ticks = iter(range(100))
    tracer = Tracer("r1", clock=lambda: float(next(ticks)))

    def inner():
        tracer.count("inner.calls")
        return "done"

    outer = tracer.wrap(lambda: tracer.call("inner", inner), "outer")
    assert outer() == "done"
    spans = {s.name: s for s in tracer.closed()}
    assert spans["inner"].parent == spans["outer"].sid
    assert spans["outer"].parent is None
    assert {s.run_id for s in spans.values()} == {"r1"}
    assert (spans["outer"].start, spans["outer"].end) == (0.0, 3.0)
    assert (spans["inner"].start, spans["inner"].end) == (1.0, 2.0)
    assert self_times(tracer.closed())[spans["outer"].sid] == pytest.approx(2.0)
    assert tracer.counts["inner.calls"] == 1


def test_span_closes_when_the_call_raises():
    tracer = Tracer("r")

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.call("boom", boom)
    assert [s.name for s in tracer.closed()] == ["boom"]
    assert tracer.call("after", lambda: 1) == 1
    assert tracer.closed()[1].parent is None


def test_patches_restore_originals():
    class Holder:
        value = 1

    with Patches() as patches:
        patches.set(Holder, "value", 2)
        patches.set(Holder, "value", 3)
        assert Holder.value == 3
    assert Holder.value == 1
