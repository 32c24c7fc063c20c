"""Differential test: a one-shard router decides exactly like a Dispatcher.

``ShardRouter(ShardPlan.single(m))`` wraps one dispatcher, so over any
operation sequence (submits, kills with displaced-work redispatch,
revivals with unparks, and warmup rebalances that migrate queued work)
it must take the same decisions as a bare
:class:`~repro.serve.dispatcher.Dispatcher` fed the same operations:
same status, machine, start and reason per decision, same committed
placements, same parking lot.  Both layers apply one failure rule
(:mod:`repro.faults.fleet`) and one warmup charge
(:meth:`Dispatcher.charge_warmup`), so setup-time policies (NC-Setup)
see the same cache cool-down through either.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns.trace import make_scheduler
from repro.core.task import Task
from repro.serve import ShardPlan, ShardRouter
from repro.serve.dispatcher import Dispatcher

M = 4
POLICIES = ["eft-min", "eft-max", "least-work", "nc-setup"]

_submit = st.tuples(
    st.just("submit"),
    st.floats(min_value=0.0, max_value=0.6),  # inter-arrival gap
    st.integers(min_value=1, max_value=M),  # key (home machine)
    st.sampled_from([0.25, 0.5, 1.0, 1.5]),  # proc
)
_kill = st.tuples(st.just("kill"), st.integers(min_value=1, max_value=M))
_revive = st.tuples(st.just("revive"), st.integers(min_value=1, max_value=M))
_rebalance = st.tuples(
    st.just("rebalance"),
    st.integers(min_value=1, max_value=M),  # home whose set changes
    st.frozensets(st.integers(min_value=1, max_value=M), min_size=1, max_size=3),
    st.sampled_from([0.0, 0.5]),  # warmup
)
_ops = st.lists(
    st.one_of(_submit, _submit, _submit, _kill, _revive, _rebalance, _rebalance), max_size=40
)


def _run(policy, ops):
    router = ShardRouter(ShardPlan.single(M), scheduler=policy)
    single = Dispatcher(make_scheduler(policy, M, seed=0))
    homes = {u: frozenset({u, u % M + 1}) for u in range(1, M + 1)}
    now, tid, version = 0.0, 0, 0
    for op in ops:
        if op[0] == "submit":
            _, gap, key, proc = op
            now += gap
            task = Task(tid=tid, release=now, proc=proc, machines=homes[key], key=key)
            tid += 1
            router.submit(task)
            single.submit(task)
        elif op[0] == "kill":
            machine = op[1]
            router.kill(machine)
            single.kill(machine)
            # Displaced queued work is re-placed by the failure rule.
            for t, (placed, start) in sorted(single.placements.items()):
                if placed == machine and start > now:
                    router.redispatch(router._tasks[t], now)
                    single.redispatch(single._tasks[t], now)
        elif op[0] == "revive":
            router.revive(op[1], now)
            single.revive(op[1], now)
        else:
            _, home, new_set, warmup = op
            new = dict(homes)
            new[home] = new_set
            version += 1
            router.apply_placement(homes, new, now, warmup=warmup, version=version)
            single.apply_placement(homes, new, now, warmup=warmup, version=version)
            homes = new
    return router, single


def _view(decision):
    return (decision.task.tid, decision.status, decision.machine, decision.start, decision.reason)


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=200, deadline=None)
@given(ops=_ops)
def test_one_shard_router_matches_dispatcher(policy, ops):
    router, single = _run(policy, ops)
    assert [_view(r.decision) for r in router.decisions] == [
        _view(d) for d in single.decisions
    ]
    assert router.placements == single.placements
    assert [t.tid for t in router.parked] == [t.tid for t in single.parked]


def test_nc_setup_rebalance_cools_the_router_shard():
    """The pinned divergence: a rebalance adding a replica resets
    NC-Setup's warm state on the router's shard as on the dispatcher."""
    ops = [
        ("kill", 1),
        ("submit", 0.0, 2, 0.25),
        ("submit", 0.0, 1, 0.25),
        ("submit", 0.0, 3, 0.25),
        ("rebalance", 3, frozenset({2}), 0.0),
        ("submit", 0.0, 2, 0.25),
    ]
    router, single = _run("nc-setup", ops)
    assert router.placements == single.placements
    assert router.dispatchers[0].scheduler.warm == single.scheduler.warm
