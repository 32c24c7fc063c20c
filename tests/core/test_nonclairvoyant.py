"""Tests for the non-clairvoyant replica-selection policies."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, Task, eft_schedule
from repro.core.nonclairvoyant import C3Like, LeastOutstanding
from repro.schedulers.ncsetup import NCSetup
from repro.simulation import WorkloadSpec, generate_workload
from tests.conftest import restricted_unit_instances


class TestLeastOutstanding:
    def test_spreads_simultaneous_arrivals(self):
        inst = Instance.build(3, releases=[0, 0, 0], procs=2.0)
        sched = LeastOutstanding(3).run(inst)
        assert sorted(sched.machine_of(i) for i in range(3)) == [1, 2, 3]

    def test_counts_decay_over_time(self):
        """Requests dispatched long ago no longer count as
        outstanding."""
        lor = LeastOutstanding(2)
        lor.submit(Task(tid=0, release=0, proc=1))
        lor.submit(Task(tid=1, release=0, proc=1))
        # both machines outstanding=1 at t=0; at t=5 both are free
        rec = lor.submit(Task(tid=2, release=5, proc=1))
        assert rec.machine == 1  # tie broken by index among zero counts

    def test_respects_processing_sets(self):
        inst = Instance.build(
            3, releases=[0, 0], procs=1.0, machine_sets=[{2, 3}, {2, 3}]
        )
        sched = LeastOutstanding(3).run(inst)
        assert {sched.machine_of(0), sched.machine_of(1)} == {2, 3}

    def test_nonclairvoyance(self):
        """LOR ignores task sizes: two queued tasks of very different
        lengths count the same, so it can pick the machine EFT
        avoids."""
        lor = LeastOutstanding(2)
        lor.submit(Task(tid=0, release=0, proc=100))  # M1 long
        lor.submit(Task(tid=1, release=0, proc=1))  # M2 short
        rec = lor.submit(Task(tid=2, release=0.5, proc=1))
        # counts: both 1 -> index tie -> machine 1 despite its backlog
        assert rec.machine == 1

    @given(restricted_unit_instances())
    @settings(max_examples=40, deadline=None)
    def test_valid_on_random(self, inst):
        LeastOutstanding(inst.m).run(inst).validate()


class TestC3Like:
    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            C3Like(2, alpha=0.0)
        with pytest.raises(ValueError):
            C3Like(2, alpha=1.5)

    def test_penalises_queue_buildup(self):
        c3 = C3Like(2)
        c3.submit(Task(tid=0, release=0, proc=5))
        c3.submit(Task(tid=1, release=0, proc=5))
        c3.submit(Task(tid=2, release=0, proc=5))  # M1 now has 2 outstanding
        rec = c3.submit(Task(tid=3, release=0, proc=5))
        assert rec.machine == 2  # (1+q)^3 strongly favours the shorter queue

    def test_ewma_feedback(self):
        """A machine observed to be slow gets deprioritised even at
        equal queue lengths."""
        c3 = C3Like(2, alpha=1.0)
        # machine 1 serves a long task, machine 2 a short one
        c3.submit(Task(tid=0, release=0, proc=10))  # -> M1 (tie, score equal, index)
        c3.submit(Task(tid=1, release=0, proc=1))  # -> M2
        # at t=20 both are idle and feedback has arrived:
        # ewma M1 = 10, M2 = 1
        rec = c3.submit(Task(tid=2, release=20, proc=1))
        assert rec.machine == 2

    @given(restricted_unit_instances())
    @settings(max_examples=40, deadline=None)
    def test_valid_on_random(self, inst):
        C3Like(inst.m).run(inst).validate()


class TestAgainstEFT:
    def test_unit_uniform_load_close_to_eft(self):
        """With unit tasks, outstanding count == waiting work, so LOR
        approximates EFT; its Fmax stays within a small factor."""
        from repro.simulation import WorkloadSpec, generate_workload

        spec = WorkloadSpec(m=8, n=2000, lam=0.6 * 8, k=3, strategy="overlapping")
        inst = generate_workload(spec, rng=1)
        eft_val = eft_schedule(inst, tiebreak="min").max_flow
        lor_val = LeastOutstanding(8).run(inst).max_flow
        assert lor_val <= 3 * eft_val + 2


class _ScanOracle:
    """The linear rescan the heap-backed tracker replaced: every call
    walks the whole in-flight list and keeps what is still running."""

    def __init__(self, m: int) -> None:
        self.m = m
        self.inflight: list[tuple[float, int]] = []

    def outstanding(self, now: float) -> dict[int, int]:
        counts = {j: 0 for j in range(1, self.m + 1)}
        still = []
        for completion, machine in self.inflight:
            if completion > now:
                counts[machine] += 1
                still.append((completion, machine))
        self.inflight = still
        return counts

    def record(self, machine: int, completion: float) -> None:
        self.inflight.append((completion, machine))


#: (release gap, start delay, service, machine): integral values, so
#: completions land exactly on later releases all the time.
_dispatches = st.lists(
    st.tuples(
        st.integers(0, 2), st.integers(0, 2), st.integers(0, 3), st.integers(1, 4)
    ),
    max_size=80,
)


class TestOutstandingCounts:
    @given(_dispatches)
    @settings(max_examples=200, deadline=None)
    def test_heap_counts_equal_the_linear_scan(self, stream):
        tracker, oracle = LeastOutstanding(4), _ScanOracle(4)
        now = 0
        for gap, delay, service, machine in stream:
            now += gap
            assert tracker.outstanding(now) == oracle.outstanding(now)
            completion = float(now + delay + service)
            tracker._record_dispatch(machine, completion)
            oracle.record(machine, completion)
        for later in (now, now + 1, now + 10):
            assert tracker.outstanding(later) == oracle.outstanding(later)

    def test_completion_at_the_query_instant_is_not_outstanding(self):
        tracker = LeastOutstanding(2)
        tracker._record_dispatch(1, 2.0)
        tracker._record_dispatch(2, 3.0)
        assert tracker.outstanding(1.0) == {1: 1, 2: 1}
        assert tracker.outstanding(2.0) == {1: 0, 2: 1}
        assert tracker.outstanding(3.0) == {1: 0, 2: 0}

    def test_returned_counts_are_a_snapshot(self):
        tracker = LeastOutstanding(2)
        tracker._record_dispatch(1, 5.0)
        counts = tracker.outstanding(0.0)
        counts[1] = 99
        assert tracker.outstanding(0.0) == {1: 1, 2: 0}


def _integral_instance(seed: int, m: int = 5, n: int = 300) -> Instance:
    """Integral releases and sizes, random sets and keys: completions
    coincide with later releases throughout."""
    rng = np.random.default_rng(seed)
    rel = np.sort(rng.integers(0, n // 2, size=n))
    tasks = []
    for i in range(n):
        k = int(rng.integers(1, m + 1))
        machines = frozenset(int(x) + 1 for x in rng.choice(m, size=k, replace=False))
        tasks.append(
            Task(
                tid=i,
                release=float(rel[i]),
                proc=float(rng.integers(1, 4)),
                machines=machines,
                key=int(rng.integers(0, 4)),
            )
        )
    return Instance(m=m, tasks=tuple(tasks))


_INSTANCES = {
    "workload": lambda: generate_workload(
        WorkloadSpec(m=8, n=400, lam=7.2, k=3, size_dist="exp"), rng=7
    ),
    "integral": lambda: _integral_instance(3),
}

#: sha256 of ``[machines, repr(starts)]`` per (instance, policy),
#: captured from the rescanning implementation.
_PLACEMENT_DIGESTS = {
    "workload/lor": "aa9b3ffb390213922cc25a5ccde2bb9c8e08721fc3ce68866b0ab7840452471e",
    "workload/c3": "ea8702a9bc9f0d282ed08b5fd52237e0e84f363c579c9ad35f2fbd2ea22991f1",
    "workload/nc-setup": "0e7102ed0075093616c017101f27c70bf54dc0ddfd9e42b58f0ef57b8a6bf4a9",
    "integral/lor": "d5a45e4209a9b12aa51167189c9f7a643b03e76260c0052df77c60a48b0d7d47",
    "integral/c3": "98d8c765b84bc8483b1c53bee8dd29b16274ab1f515409322749e5277f3be10b",
    "integral/nc-setup": "a57f69c7809377c75ca883e9e64d88d86c3e04987e7ff8dd1b112d1b4f4cdb7e",
}
_POLICIES = {"lor": LeastOutstanding, "c3": C3Like, "nc-setup": NCSetup}


@pytest.mark.parametrize("case", sorted(_PLACEMENT_DIGESTS))
def test_placements_match_the_pinned_fixture(case):
    instance_name, policy = case.split("/")
    inst = _INSTANCES[instance_name]()
    sched = _POLICIES[policy](inst.m).run(inst)
    machines = [sched.machine_of(t.tid) for t in inst.tasks]
    starts = [repr(sched.start_of(t.tid)) for t in inst.tasks]
    digest = hashlib.sha256(json.dumps([machines, starts]).encode()).hexdigest()
    assert digest == _PLACEMENT_DIGESTS[case]
