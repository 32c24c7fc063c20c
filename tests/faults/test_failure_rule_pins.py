"""Byte pins of the engine's failure rule.

A faulted run whose sets are small enough that whole sets go down
exercises every branch of the failure path: degraded dispatch,
least-waiting-work redispatch of displaced work, parking, and unparking
in park order on recovery.  The pins fix the hook-by-hook trace of the
run (every observer call with its time, task and machine, plus the final
per-task books), the :class:`~repro.obs.sim.SimRecorder` metrics
snapshot, and the fault counters, under both fault policies.  They were
captured before the failure rule moved into :mod:`repro.faults.fleet`.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import EFT, Instance
from repro.faults import RESTART, RESUME, chaos_schedule
from repro.obs.sim import SimRecorder
from repro.obs.snapshot import metrics_snapshot, metrics_to_json
from repro.simulation import Simulator

PINS = {
    RESTART: {
        "trace": "98e44a414a5482a099f37f2e4ea91b0ebd189b837f6a064330a38c700afc33ae",
        "metrics": "3a5abd72fe6efccfe88ca5d1d6dd0152e3bdf3eb7754cc1256a1e1ef480d6ea0",
        "n_requeued": 12,
        "n_parked": 0,
        "wasted_work": 14.339814837239643,
    },
    RESUME: {
        "trace": "17612a1b9712922b4dc28fa161fcb888ffebdaff746ddc02cda86e01c3006991",
        "metrics": "e7790113541e17ec019d61506383a4200e2070d5dddcfd96a192aaf5604dd0fa",
        "n_requeued": 5,
        "n_parked": 0,
        "wasted_work": 0.0,
    },
}


class _Logged:
    """Wraps a :class:`SimRecorder` and logs every hook call."""

    def __init__(self, recorder: SimRecorder) -> None:
        self.recorder = recorder
        self.log: list[list] = []

    def __getattr__(self, name):
        hook = getattr(self.recorder, name)
        if not name.startswith("on_"):
            return hook

        def logged(sim, task_or_machine, machine=None):
            if isinstance(task_or_machine, int):
                entry = [name, sim.now, None, task_or_machine]
            else:
                entry = [name, sim.now, task_or_machine.tid, machine]
            self.log.append(entry)
            if machine is None:
                return hook(sim, task_or_machine)
            return hook(sim, task_or_machine, machine)

        return logged


def _instance() -> Instance:
    rng = np.random.default_rng(11)
    m, n = 6, 160
    releases = np.cumsum(rng.exponential(0.3, n))
    procs = rng.uniform(0.2, 1.6, n)
    sets = []
    for i in range(n):
        home = int(rng.integers(1, m + 1))
        width = 1 if i % 3 == 0 else 2
        sets.append({(home - 1 + d) % m + 1 for d in range(width)})
    return Instance.build(m, releases=list(releases), procs=list(procs), machine_sets=sets)


def _run(policy):
    inst = _instance()
    faults = chaos_schedule(inst.m, horizon=60.0, mtbf=6.0, mttr=2.5, seed=4)
    obs = _Logged(SimRecorder())
    sim = Simulator(EFT(inst.m, tiebreak="min"), obs=obs, faults=faults, fault_policy=policy)
    sim.add_instance(inst)
    result = sim.run()
    books = [
        [t.tid, sim.assigned_machine.get(t.tid), sim.starts.get(t.tid), sim.completions.get(t.tid)]
        for t in inst
    ]
    trace = json.dumps({"hooks": obs.log, "books": books}, separators=(",", ":"))
    metrics = metrics_to_json(metrics_snapshot(obs.recorder.registry))
    return result, obs, trace, metrics


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("policy", [RESTART, RESUME])
class TestEngineFailurePins:
    def test_run_exercises_parks_and_unparks(self, policy):
        _, obs, _, _ = _run(policy)
        names = {entry[0] for entry in obs.log}
        assert {"on_requeue", "on_park", "on_unpark"} <= names

    def test_trace_and_metrics(self, policy):
        result, _, trace, metrics = _run(policy)
        pins = PINS[policy]
        assert _sha(trace) == pins["trace"]
        assert _sha(metrics) == pins["metrics"]
        assert result.n_requeued == pins["n_requeued"]
        assert result.n_parked == pins["n_parked"]
        assert result.wasted_work == pins["wasted_work"]
