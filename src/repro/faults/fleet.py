"""The failure rule, shared by every layer that loses machines.

The reference :class:`~repro.simulation.engine.Simulator`, the serve
:class:`~repro.serve.dispatcher.Dispatcher` and the
:class:`~repro.serve.shard.router.ShardRouter` place displaced, parked
and migrated work the same way: EFT over committed work — the alive
candidate with the least waiting work :math:`w_t(j)` (Theorem 8's
quantity) wins, smallest index on ties — and parked work is released in
park order.  Each layer measures waiting work from its own state
(machine queues, analytic completions, per-shard books), so the rule is
plain functions over a ``work`` callback, not a state object.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Iterable, Iterator, Mapping

from ..core.task import Task

__all__ = ["added_machines", "least_waiting_work", "stale_placements", "unpark"]


def least_waiting_work(candidates: Iterable[int], work: Callable[[int], float]) -> int:
    """The candidate with the least ``work``, smallest index on ties."""
    return min(sorted(candidates), key=work)


def unpark(parked: list[Task], alive: AbstractSet[int], m: int) -> Iterator[Task]:
    """Yield, in park order, each parked task whose set meets ``alive``.

    ``parked`` is rewritten in place to the tasks that stay parked; at
    each yield ``len(parked)`` is the number kept so far.
    """
    pending = parked[:]
    parked.clear()
    for task in pending:
        if task.eligible(m) & alive:
            yield task
        else:
            parked.append(task)


def added_machines(
    old_sets: Mapping[int, frozenset[int]], new_sets: Mapping[int, frozenset[int]]
) -> list[int]:
    """The machines a rebalance adds to some home's set, sorted."""
    return sorted({j for u, new in new_sets.items() for j in new - old_sets.get(u, frozenset())})


def stale_placements(
    placements: Mapping[int, tuple[int, float]],
    tasks: Mapping[int, Task],
    new_sets: Mapping[int, frozenset[int]],
    now: float,
) -> list[Task]:
    """The unstarted tasks (start after ``now``) booked on a machine
    their home's new set dropped, in tid order, each re-homed onto that
    set."""
    moved = []
    for tid, (machine, start) in sorted(placements.items()):
        new_set = new_sets.get(tasks[tid].key)
        if start > now and new_set is not None and machine not in new_set:
            moved.append(tasks[tid].restricted_to(new_set))
    return moved
