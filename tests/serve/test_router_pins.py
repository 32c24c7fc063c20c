"""Byte pins of the router's failure rule.

A 3-shard EFT-Min router over an overlapping (ring-replicated) plan is
driven through every failure-path branch: cross-shard handoffs of
straddling sets, displaced-work redispatch after a kill, router parks
when a whole set is down, unparks on revival, a shard detach and
reattach, and a warmup rebalance that migrates queued work.  The pins
fix the full decision log and the rolled-up fleet metrics snapshot.
They were captured before the failure rule moved into
:mod:`repro.faults.fleet`.
"""

import hashlib
import json

import numpy as np

from repro.core.task import Task
from repro.obs.snapshot import metrics_snapshot, metrics_to_json
from repro.serve import ShardPlan, ShardRouter

DECISIONS_SHA256 = "f20717b96092e3ac20c48d6f5cc120c94d9ef9d92b733536173e218a1f6f1d47"
REGISTRY_SHA256 = "77eb35115853f1582f13f91e0ad9c1eb5a3a0858a28184d312041e8fe00626e9"

M = 9


def _ring(home: int, width: int) -> frozenset[int]:
    return frozenset((home - 1 + d) % M + 1 for d in range(width))


def _drive() -> ShardRouter:
    rng = np.random.default_rng(5)
    router = ShardRouter(ShardPlan.even(M, 3), scheduler="eft-min")
    homes = {u: _ring(u, 2) for u in range(1, M + 1)}
    now = 0.0

    def displace(machine: int) -> None:
        for tid, (placed, start) in sorted(router.placements.items()):
            if placed == machine and start > now:
                router.redispatch(router._tasks[tid], now)

    for tid in range(240):
        now += float(rng.exponential(0.06))
        if tid == 40:
            router.kill(3)  # straddlers homed on 3 hand off to shard 1
            displace(3)
        if tid == 60:
            router.kill(4)
            router.kill(5)  # {4, 5} is wholly down: router parks
            displace(4)
            displace(5)
        if tid == 90:
            router.revive(4, now)
        if tid == 110:
            router.revive(3, now)
            router.revive(5, now)
        if tid == 130:
            router.detach_shard(2)  # shard 2's owned sets hand off or park
        if tid == 150:
            router.reattach_shard(2, now=now)
        if tid == 200:
            new = dict(homes)
            new[2] = homes[2] | {4}  # widen: machine 4 pays the warmup
            new[4] = frozenset({4, 6})  # queued work on 5 migrates
            new[7] = frozenset({7, 1})  # ... and on 8, across shards
            router.apply_placement(homes, new, now, warmup=0.4, version=1)
            homes = new
        key = int(rng.integers(1, M + 1))
        proc = float(rng.uniform(0.2, 1.2))
        router.submit(Task(tid=tid, release=now, proc=proc, machines=homes[key], key=key))
    return router


def _decision_log(router: ShardRouter) -> str:
    rows = [
        [
            r.decision.task.tid, r.status, r.shard, r.handoff, r.machine,
            r.decision.start, r.decision.reason,
        ]
        for r in router.decisions
    ]
    return json.dumps(rows, separators=(",", ":"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestRouterFailurePins:
    def test_drive_exercises_every_branch(self):
        router = _drive()
        statuses = {(r.status, r.handoff, r.decision.reason) for r in router.decisions}
        assert ("parked", False, None) in statuses
        reasons = {reason for s, _, reason in statuses if s == "requeued"}
        assert {"failure", "unpark", "rebalance"} <= reasons
        assert any(handoff for _, handoff, _ in statuses)

    def test_decisions_and_fleet_registry(self):
        router = _drive()
        assert _sha(_decision_log(router)) == DECISIONS_SHA256
        registry = metrics_to_json(metrics_snapshot(router.fleet_registry()))
        assert _sha(registry) == REGISTRY_SHA256
