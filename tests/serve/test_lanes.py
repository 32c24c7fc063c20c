"""MachineLanes: the timer-driven machine model both services share.

All async tests run their own event loop via ``asyncio.run`` (no
asyncio pytest plugin, matching the rest of the serve suite).
"""

import asyncio

from repro.core.task import Task
from repro.serve import ServeConfig, build_service
from repro.serve.lanes import MachineLanes


def _lanes(alive, time_scale=0.01):
    done, displaced = [], []
    lanes = MachineLanes(
        2,
        time_scale,
        alive=alive.__contains__,
        on_complete=lambda machine, task, flow: done.append((machine, task.tid)),
        on_displaced=lambda task, arrival: displaced.append(task.tid),
    )
    return lanes, done, displaced


def _task(tid, proc=1.0):
    return Task(tid=tid, release=0.0, proc=proc)


class TestMachineLanes:
    def test_kill_drains_the_queue_not_the_in_flight_request(self):
        async def go():
            alive = {1, 2}
            lanes, done, displaced = _lanes(alive)
            lanes.start()
            for tid in range(3):
                lanes.push(1, _task(tid))
            assert lanes.outstanding == 3
            alive.discard(1)
            assert lanes.kill(1) == 2
            assert displaced == [1, 2]
            assert lanes.outstanding == 1
            assert await lanes.drain() == 1
            assert done == [(1, 0)]  # the in-flight request finished

        asyncio.run(go())

    def test_request_dequeued_onto_dead_machine_is_displaced(self):
        async def go():
            alive = {1, 2}
            lanes, done, displaced = _lanes(alive)
            lanes.start()
            lanes.push(2, _task(5))
            lanes.push(2, _task(6))
            alive.discard(2)  # dead, but never killed through the lanes
            await lanes.drain()
            assert done == [(2, 5)]
            assert displaced == [6]
            lanes.push(2, _task(7))  # an idle dead lane displaces at once
            assert displaced == [6, 7] and lanes.outstanding == 0

        asyncio.run(go())

    def test_lanes_serve_fifo_one_at_a_time(self):
        async def go():
            lanes, done, _ = _lanes({1, 2})
            lanes.start()
            for tid in range(3):
                lanes.push(1, _task(tid, proc=0.5))
            lanes.push(2, _task(9, proc=2.0))
            assert await lanes.drain() == 4
            assert done == [(1, 0), (1, 1), (1, 2), (2, 9)]

        asyncio.run(go())

    def test_stop_leaves_no_live_timers(self):
        async def go():
            lanes, done, _ = _lanes({1, 2}, time_scale=10.0)
            lanes.start()
            for tid in range(4):
                lanes.push(1 + tid % 2, _task(tid))
            timers = list(lanes._timers.values())
            assert len(timers) == 2
            lanes.stop()
            assert all(timer.cancelled() for timer in timers)
            assert not lanes._timers and not any(lanes._lanes.values())
            await asyncio.sleep(0)
            assert done == []

        asyncio.run(go())


class TestServiceRevive:
    def test_revive_re_enqueues_parked_work(self):
        async def go():
            service = build_service(ServeConfig(m=2, time_scale=0.01))
            await service.start()
            try:
                only_1 = frozenset({1})
                for tid in range(3):
                    service.submit(Task(tid=tid, release=0.0, proc=1.0, machines=only_1))
                assert service.kill(1) == 2  # the queued tail parks
                assert service.lanes.outstanding == 1
                assert service.revive(1) == 2
                assert service.lanes.outstanding == 3
                assert await service.drain() == 3
                assert service.dispatcher.parked == []
            finally:
                await service.stop()

        asyncio.run(go())
