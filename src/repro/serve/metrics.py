"""Live service metrics, recorded into a :mod:`repro.obs` registry.

:class:`ServeMetrics` is the observability surface of the serving
layer: the dispatcher core drives the decision-path recorders
(requests, dispatches, sheds, parks, requeues, per-machine queue-depth
gauges) and the asyncio service layer drives the completion-path ones
(completions, measured wall flow).  Everything lands in one
:class:`~repro.obs.recorders.MetricsRegistry`, so a snapshot taken at
any instant serialises in the canonical byte-stable format of
:mod:`repro.obs.snapshot` — the same format the campaign ``--metrics``
snapshots use, validatable with ``python -m repro.obs.validate``.

Decision-path metrics are a pure function of the admitted request
stream (the dispatcher is virtual-clocked), so two runs over the same
workload agree on every counter and on the ``est_flow`` histogram;
only the ``wall_flow`` histogram and the sampled gauges reflect
wall-clock reality and may differ between runs.
"""

from __future__ import annotations

from typing import Sequence

from ..obs.recorders import Gauge, MetricsRegistry
from ..obs.sim import DEFAULT_FLOW_EDGES

__all__ = ["ServeMetrics"]


class ServeMetrics:
    """Recorder bundle of the dispatch service.

    Parameters
    ----------
    registry:
        Registry to record into (a fresh one by default; pass a shared
        one to merge the service into a larger snapshot).
    flow_edges:
        Bucket edges of the ``est_flow`` and ``wall_flow`` histograms,
        in virtual time units.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        flow_edges: Sequence[float] = DEFAULT_FLOW_EDGES,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.requests = self.registry.counter("requests_total")
        self.dispatched = self.registry.counter("dispatched_total")
        self.shed_total = self.registry.counter("shed_total")
        self.completed = self.registry.counter("completed_total")
        self.errors = self.registry.counter("errors_total")
        self.est_flow = self.registry.histogram("est_flow", flow_edges)
        self.wall_flow = self.registry.histogram("wall_flow", flow_edges)
        #: ``queue_depth[j]`` gauges, created on machine j's first dispatch.
        self._depth: dict[int, Gauge] = {}

    # -- decision path (dispatcher core) ------------------------------------
    def on_request(self) -> None:
        self.requests.inc()

    def on_dispatch(self, machine: int, est_flow: float, depth: int) -> None:
        self.dispatched.inc()
        self.est_flow.observe(est_flow)
        self.set_depth(machine, depth)

    def on_shed(self, reason: str) -> None:
        self.shed_total.inc()
        self.registry.counter(f"shed_{reason}_total").inc()

    # Fault-path recorders are created lazily (like the simulator's
    # SimRecorder), so a fault-free run's snapshot carries no fault keys.
    def on_park(self, n_parked: int) -> None:
        self.registry.counter("parked_total").inc()
        self.registry.gauge("parked_now").set(n_parked)

    def on_unpark(self, n_parked: int) -> None:
        self.registry.counter("unparked_total").inc()
        self.registry.gauge("parked_now").set(n_parked)

    def on_requeue(self) -> None:
        self.registry.counter("requeued_total").inc()

    # Rebalance recorders are lazy for the same reason: a run that
    # never rebalances must snapshot byte-identically to one that
    # cannot (the no-trigger golden-identity guarantee).
    def on_rebalance(
        self, version: int | None, n_migrated: int, n_added: int
    ) -> None:
        self.registry.counter("rebalance_applied_total").inc()
        self.registry.counter("rebalance_migrated_total").inc(n_migrated)
        self.registry.counter("rebalance_warmup_machines_total").inc(n_added)
        if version is not None:
            self.registry.gauge("placement_version").set(version)

    def on_kill(self, machine: int, n_alive: int) -> None:
        self.registry.counter("machine_kills_total").inc()
        self.registry.gauge("alive_machines").set(n_alive)

    def on_revive(self, machine: int, n_alive: int) -> None:
        self.registry.counter("machine_revives_total").inc()
        self.registry.gauge("alive_machines").set(n_alive)

    def set_depth(self, machine: int, depth: int) -> None:
        gauge = self._depth.get(machine)
        if gauge is None:
            gauge = self._depth[machine] = self.registry.gauge(f"queue_depth[{machine}]")
        gauge.set(depth)

    # -- completion path (service layer) ------------------------------------
    def on_complete(self, wall_flow: float) -> None:
        self.completed.inc()
        self.wall_flow.observe(wall_flow)

    def on_error(self) -> None:
        self.errors.inc()
