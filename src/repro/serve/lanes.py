"""Real-time machine lanes: the one worker model of both services.

Every machine is a FIFO lane serving one request at a time, run to
completion, for ``proc * time_scale`` wall seconds (the engine's
machine model).  A busy lane holds one ``loop.call_later`` timer for
its in-flight request; there is no task or queue object per machine.
Which machine a request goes to, what a completion records and where a
request displaced off a dead machine goes are the owner's callbacks.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable

__all__ = ["MachineLanes"]


class MachineLanes:
    """Per-machine FIFO lanes (machines ``1..m``) driven by timers.

    ``alive(machine)`` says whether a request may start on a machine;
    ``on_complete(machine, task, wall_flow)`` runs when one finishes
    (``wall_flow`` in virtual units from its arrival at the lane);
    ``on_displaced(task, arrival)`` re-places a request that cannot
    start because its machine is dead, usually by :meth:`push`-ing it
    onto another lane.  :meth:`start` binds the running event loop;
    ``n_completed`` counts finished requests from ``completed``.
    """

    def __init__(
        self,
        m: int,
        time_scale: float,
        alive: Callable[[int], bool],
        on_complete: Callable[[int, Any, float], None],
        on_displaced: Callable[[Any, float], None],
        completed: int = 0,
    ) -> None:
        self.time_scale = time_scale
        self._alive = alive
        self._on_complete = on_complete
        self._on_displaced = on_displaced
        self._lanes: dict[int, deque] = {j: deque() for j in range(1, m + 1)}
        self._timers: dict[int, asyncio.TimerHandle] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._idle = asyncio.Event()
        self._idle.set()
        #: requests pushed and not yet finished or displaced.
        self.outstanding = 0
        self.n_completed = completed

    def start(self) -> None:
        if self._loop is not None:
            raise RuntimeError("service already started")
        self._loop = asyncio.get_running_loop()

    def stop(self) -> None:
        """Cancel every in-flight timer and forget the queued work."""
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        for lane in self._lanes.values():
            lane.clear()

    def push(self, machine: int, task: Any, arrival: float | None = None) -> None:
        """Queue ``task`` on ``machine``'s lane (starting it at once if
        the lane is idle); ``arrival`` defaults to now, in loop time."""
        if arrival is None:
            arrival = self._loop.time()
        self.outstanding += 1
        self._idle.clear()
        if machine in self._timers:
            self._lanes[machine].append((task, arrival))
        else:
            self._begin(machine, task, arrival)

    def _begin(self, machine: int, task: Any, arrival: float) -> None:
        if not self._alive(machine):
            # Dequeued onto a dead machine: route it as displaced.
            self.outstanding -= 1
            self._on_displaced(task, arrival)
            self._settle()
            return
        self._timers[machine] = self._loop.call_later(
            task.proc * self.time_scale, self._finish, machine, task, arrival
        )

    def _finish(self, machine: int, task: Any, arrival: float) -> None:
        del self._timers[machine]
        self._on_complete(machine, task, (self._loop.time() - arrival) / self.time_scale)
        self.n_completed += 1
        self.outstanding -= 1
        lane = self._lanes[machine]
        while lane and machine not in self._timers:
            self._begin(machine, *lane.popleft())
        self._settle()

    def kill(self, machine: int) -> int:
        """Displace every request queued on ``machine`` (the in-flight
        one still finishes: drain-on-failure); returns how many."""
        lane = self._lanes[machine]
        displaced = list(lane)
        lane.clear()
        self.outstanding -= len(displaced)
        for task, arrival in displaced:
            self._on_displaced(task, arrival)
        self._settle()
        return len(displaced)

    def _settle(self) -> None:
        if self.outstanding == 0:
            self._idle.set()

    async def drain(self) -> int:
        """Wait until every pushed request has finished (or been
        displaced off the lanes); returns ``n_completed``."""
        await self._idle.wait()
        return self.n_completed
