"""Fault injection: machine DOWN/UP schedules for degraded-mode runs.

The replicated key-value stores motivating the paper lose and recover
replicas as a matter of course; this package makes that a first-class,
reproducible scenario:

* :mod:`~repro.faults.schedule` — :class:`Outage` windows collected in
  a normalised :class:`FaultSchedule`, plus :func:`chaos_schedule`
  (seeded exponential MTBF/MTTR failure/repair patterns);
* :mod:`~repro.faults.policies` — what happens to the in-flight task
  of a failing machine (``restart`` elsewhere / ``resume`` on
  recovery);
* :mod:`~repro.faults.fleet` — the failure rule every layer that loses
  machines applies (the engine, the serve ``Dispatcher`` and the
  ``ShardRouter``): least-waiting-work placement, unparking in park
  order, and the machines and tasks a rebalance touches;
* :mod:`~repro.faults.units` — misbehaving campaign units (crash,
  hang, flaky) exercising the runner's crash isolation, per-unit
  timeouts and retry;
* :mod:`~repro.faults.selftest` — the CI runner-resilience smoke
  (``python -m repro.faults.selftest``).

The consumer is :class:`repro.simulation.engine.Simulator` via its
``faults=`` / ``fault_policy=`` parameters: machines go DOWN and UP as
scheduled, dispatch happens over :math:`\\mathcal{M}_i \\cap
\\text{alive}`, and tasks whose alive set is empty are parked until a
machine of their set recovers.
"""

from .policies import POLICIES, RESTART, RESUME, validate_policy
from .schedule import (
    FAULTS_FORMAT,
    FAULTS_VERSION,
    FaultSchedule,
    Outage,
    chaos_schedule,
)

__all__ = [
    "FAULTS_FORMAT",
    "FAULTS_VERSION",
    "FaultSchedule",
    "Outage",
    "POLICIES",
    "RESTART",
    "RESUME",
    "chaos_schedule",
    "validate_policy",
]
