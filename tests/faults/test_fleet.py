"""The shared failure rule (:mod:`repro.faults.fleet`)."""

from repro.core.task import Task
from repro.faults.fleet import added_machines, least_waiting_work, stale_placements, unpark


def _task(tid, machines, key=None):
    return Task(tid=tid, release=0.0, proc=1.0, machines=frozenset(machines), key=key)


class TestLeastWaitingWork:
    def test_least_work_wins(self):
        work = {1: 3.0, 2: 1.0, 3: 2.0}
        assert least_waiting_work({1, 2, 3}, work.__getitem__) == 2

    def test_smallest_index_on_ties(self):
        work = {1: 2.0, 2: 1.0, 3: 1.0, 4: 1.0}
        assert least_waiting_work([4, 3, 2, 1], work.__getitem__) == 2


class TestUnpark:
    def test_yields_in_park_order_and_keeps_the_rest(self):
        parked = [_task(0, {1}), _task(1, {2}), _task(2, {1, 3}), _task(3, {4})]
        released = [t.tid for t in unpark(parked, {1, 3}, 4)]
        assert released == [0, 2]
        assert [t.tid for t in parked] == [1, 3]

    def test_parked_holds_the_tasks_kept_so_far_at_each_yield(self):
        parked = [_task(0, {2}), _task(1, {1}), _task(2, {2}), _task(3, {1})]
        kept_at_yield = [len(parked) for _ in unpark(parked, {1}, 2)]
        assert kept_at_yield == [1, 2]
        assert [t.tid for t in parked] == [0, 2]


class TestRebalanceSelection:
    def test_added_machines(self):
        old = {1: frozenset({1, 2}), 2: frozenset({2, 3})}
        new = {1: frozenset({1, 2, 3}), 2: frozenset({3, 4}), 3: frozenset({1})}
        assert added_machines(old, new) == [1, 3, 4]

    def test_stale_placements_moves_unstarted_tasks_off_dropped_machines(self):
        tasks = {
            0: _task(0, {1, 2}, key=1),  # on 2, dropped, unstarted: moves
            1: _task(1, {1, 2}, key=1),  # on 1, kept: stays
            2: _task(2, {1, 2}, key=1),  # on 2 but already started: stays
            3: _task(3, {3}),  # unkeyed: stays
            4: _task(4, {2, 3}, key=2),  # home unchanged: stays
        }
        placements = {0: (2, 5.0), 1: (1, 5.0), 2: (2, 1.0), 3: (3, 5.0), 4: (2, 5.0)}
        new_sets = {1: frozenset({1, 3})}
        moved = stale_placements(placements, tasks, new_sets, now=2.0)
        assert [t.tid for t in moved] == [0]
        assert moved[0] == tasks[0].restricted_to({1, 3})
