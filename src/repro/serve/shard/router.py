"""The sharded decision tier: N dispatchers behind one router.

:class:`ShardRouter` scales :class:`~repro.serve.dispatcher.Dispatcher`
out horizontally: one dispatcher per shard of a :class:`ShardPlan`,
each with its own scheduler, shard-local
:class:`~repro.serve.admission.AdmissionController` and
:class:`~repro.serve.metrics.ServeMetrics` registry.  Like the single
dispatcher, the router is *synchronous and virtual-clocked* — every
placement is a pure function of the admitted request stream — which is
what lets shadow mode byte-compare a sharded run against the
single-dispatcher golden traces (:mod:`repro.serve.shadow`).

Routing invariants:

* **shard-local sets** (the whole processing set inside one shard —
  always the case on a Theorem-6 disjoint plan) are submitted to the
  owner shard's dispatcher unchanged, so per-shard decisions are
  *identical* to the fleet-wide dispatcher's (EFT only reads the
  eligible machines' completion times, and only this shard's tasks
  write them);
* **straddling sets** (the plan's bounded handoff set, overlapping
  ring replication) are dispatched to the owner shard restricted to
  the owner-side fragment; the cross-shard remainder is touched only
  when the owner fragment's alive set goes empty, at which point the
  router *hands off* using the engine's failure rule — least waiting
  work over all alive remote candidates, smallest index on ties — via
  the target dispatcher's ``redispatch`` path;
* a request with **no alive machine anywhere** in its set is parked at
  the router (or shed with ``on_unavailable="shed"``) and re-placed on
  the first revival that intersects it, in park order.

Every dispatcher addresses machines by their *global* 1-based index
(each is built over the full ``m``), so placements merge without
renumbering; a shard only ever receives tasks restricted to its own
interval, so its scheduler state never references foreign machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ...campaigns.trace import make_scheduler
from ...core.schedule import Schedule
from ...core.task import Instance, Task
from ...faults.fleet import added_machines, least_waiting_work, stale_placements, unpark
from ...obs.recorders import Counter, MetricsRegistry
from ...obs.rollup import rollup_registries
from ..admission import AdmissionController
from ..dispatcher import DISPATCHED, PARKED, REQUEUED, SHED, DispatchDecision, Dispatcher
from ..metrics import ServeMetrics
from .plan import ShardPlan

__all__ = ["RoutedDecision", "ShardRouter"]

#: reason attached to router-shed requests whose whole set was down.
SHED_UNAVAILABLE = "unavailable"


@dataclass(frozen=True, slots=True)
class RoutedDecision:
    """A dispatch decision plus its routing: which shard took it and
    whether it travelled the cross-shard handoff path."""

    decision: DispatchDecision
    shard: int | None
    handoff: bool = False

    @property
    def task(self) -> Task:
        return self.decision.task

    @property
    def status(self) -> str:
        return self.decision.status

    @property
    def machine(self) -> int | None:
        return self.decision.machine

    @property
    def start(self) -> float | None:
        return self.decision.start

    @property
    def est_flow(self) -> float | None:
        return self.decision.est_flow

    @property
    def reason(self) -> str | None:
        return self.decision.reason

    @property
    def routing(self) -> dict[str, Any]:
        """The routing fields of the ``submit`` response."""
        return {"shard": self.shard, "handoff": self.handoff}


class ShardRouter:
    """N shard dispatchers behind interval-aware routing.

    The sharded decision core of
    :class:`~repro.serve.frontend.ServeService`: it answers the calls
    the service makes of a :class:`Dispatcher` (``submit``,
    ``redispatch``, ``kill``, ``revive``, ``machine_alive``,
    ``on_complete``, ``on_error``, ``counter``, ``registry``, ``stats``)
    plus the shard ops (``plan``, ``detach_shard``, ``reattach_shard``).

    Parameters
    ----------
    plan:
        The :class:`ShardPlan` partitioning machines into shards.
    scheduler:
        Scheduler name per shard (``eft-min`` etc.); each shard gets
        its own instance, seeded ``seed + shard_id`` for the randomised
        ones.
    slo / max_queue_depth:
        Shard-local admission (each shard reviews against its own
        analytic state only — per-shard admission ceilings).
    on_unavailable:
        ``"park"`` (default) or ``"shed"`` for requests whose whole
        set is dead fleet-wide.
    """

    def __init__(
        self,
        plan: ShardPlan,
        scheduler: str = "eft-min",
        seed: int = 0,
        slo: float | None = None,
        max_queue_depth: int | None = None,
        on_unavailable: str = "park",
    ) -> None:
        if on_unavailable not in ("park", "shed"):
            raise ValueError(f"on_unavailable must be 'park' or 'shed', got {on_unavailable!r}")
        self.plan = plan
        self.m = plan.m
        self.scheduler_name = scheduler
        self.on_unavailable = on_unavailable
        self.shard_metrics: list[ServeMetrics] = []
        self.dispatchers: list[Dispatcher] = []
        for sid in range(plan.n_shards):
            metrics = ServeMetrics()
            admission = AdmissionController(slo=slo, max_queue_depth=max_queue_depth)
            self.dispatchers.append(
                Dispatcher(
                    make_scheduler(scheduler, plan.m, seed=seed + sid),
                    admission=admission if admission.enabled else None,
                    metrics=metrics,
                )
            )
            self.shard_metrics.append(metrics)
        self.router_registry = MetricsRegistry()
        self._routed = self.router_registry.counter("router_routed_total")
        self._handoffs = self.router_registry.counter("router_handoffs_total")
        self.down_shards: set[int] = set()
        self.parked: list[Task] = []
        self.decisions: list[RoutedDecision] = []
        self._tasks: dict[int, Task] = {}
        self.placements: dict[int, tuple[int, float]] = {}
        self.n_handoffs = 0
        self.n_shed = 0
        self.n_errors = 0

    # -- state ---------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.plan.n_shards

    def shard_alive(self, sid: int) -> frozenset[int]:
        """Alive machines of shard ``sid`` (its own interval only).
        A detached shard counts as fully dead regardless of its
        dispatcher's books — its process is gone."""
        if sid in self.down_shards:
            return frozenset()
        return frozenset(self.plan.machines(sid) & self.dispatchers[sid].alive)

    def alive(self) -> frozenset[int]:
        """Fleet-wide alive set."""
        out: set[int] = set()
        for sid in range(self.n_shards):
            out |= self.shard_alive(sid)
        return frozenset(out)

    # -- the decision path ---------------------------------------------------
    def submit(self, task: Task) -> RoutedDecision:
        """Route and decide one fresh release (release order, as the
        dispatcher contract requires — per-shard substreams of a
        release-ordered stream are release-ordered)."""
        route = self.plan.route(task.eligible(self.m))
        self._routed.inc()
        self.router_registry.counter(f"router_routed_shard[{route.owner}]_total").inc()
        owner = route.owner
        owner_frag = route.owner_fragment
        if owner not in self.down_shards and owner_frag & self.dispatchers[owner].alive:
            if route.is_local:
                decision = self.dispatchers[owner].submit(task)
            else:
                decision = self.dispatchers[owner].submit(task.restricted_to(owner_frag))
            return self._book(task, decision, owner)
        # Owner-side fragment fully dead: cross-shard failure handoff.
        return self._place_failed(task, route, now=task.release, reason="handoff")

    def _place_failed(self, task: Task, route, now: float, reason: str) -> RoutedDecision:
        """The failure path: place over every alive candidate fleet-wide
        with the engine's least-waiting-work rule, or park/shed."""
        candidates = [
            j
            for sid, frag in route.fragments
            if sid not in self.down_shards
            for j in frag & self.dispatchers[sid].alive
        ]
        if not candidates:
            if self.on_unavailable == "shed":
                decision = DispatchDecision(task=task, status=SHED, reason=SHED_UNAVAILABLE)
                self.decisions.append(RoutedDecision(decision=decision, shard=None))
                self.n_shed += 1
                self.router_registry.counter("router_shed_unavailable_total").inc()
                return self.decisions[-1]
            self.parked.append(task)
            decision = DispatchDecision(task=task, status=PARKED)
            self.decisions.append(RoutedDecision(decision=decision, shard=None))
            self.router_registry.counter("router_parked_total").inc()
            self.router_registry.gauge("router_parked_now").set(len(self.parked))
            return self.decisions[-1]
        shard_of = self.plan.shard_of
        machine = least_waiting_work(
            candidates, lambda j: self.dispatchers[shard_of(j)].waiting_work(j, now)
        )
        sid = shard_of(machine)
        frag = route.fragment(sid)
        sub = task if frag == task.eligible(self.m) else task.restricted_to(frag)
        decision = self.dispatchers[sid].redispatch(sub, now, reason=reason)
        handoff = sid != route.owner
        if handoff:
            self.n_handoffs += 1
            self._handoffs.inc()
        return self._book(task, decision, sid, handoff=handoff)

    def _book(
        self, task: Task, decision: DispatchDecision, shard: int, handoff: bool = False
    ) -> RoutedDecision:
        """Record a shard decision under the *original* task (the shard
        may have seen a fragment-restricted copy)."""
        if decision.status in (DISPATCHED, REQUEUED):
            self._tasks[task.tid] = task
            self.placements[task.tid] = (decision.machine, decision.start)
        elif decision.status == SHED:
            self.n_shed += 1
        elif decision.status == PARKED:
            # The shard parked it (a race only possible through direct
            # dispatcher use); keep router books consistent anyway.
            pass
        routed = RoutedDecision(decision=decision, shard=shard, handoff=handoff)
        self.decisions.append(routed)
        return routed

    # -- rebalance surface ---------------------------------------------------
    def apply_placement(
        self,
        old_sets: dict[int, frozenset[int]],
        new_sets: dict[int, frozenset[int]],
        now: float,
        warmup: float = 0.0,
        version: int | None = None,
    ) -> list[RoutedDecision]:
        """Enact a re-replication decision fleet-wide.

        The sharded analogue of
        :meth:`repro.serve.dispatcher.Dispatcher.apply_placement`:
        machines joining a home's replica set are charged ``warmup`` by
        their owning shard's :meth:`Dispatcher.charge_warmup` (which also
        cools NC-Setup caches there); queued-but-unstarted requests
        whose machine left their home's set are withdrawn from the
        shard that booked them and re-placed through the router's
        cross-shard failure rule (least waiting work over every alive
        candidate, smallest index on ties), in tid order — a migration
        may therefore *hand off* to another shard.  Counters and the
        placement-version gauge land in the router registry (lazily, so
        never-rebalanced fleets snapshot without rebalance keys).
        """
        added = added_machines(old_sets, new_sets)
        for sid in range(self.n_shards):
            owned = [j for j in added if self.plan.shard_of(j) == sid]
            self.dispatchers[sid].charge_warmup(owned, now, warmup)
        migrated: list[RoutedDecision] = []
        for task in stale_placements(self.placements, self._tasks, new_sets, now):
            machine, _ = self.placements.pop(task.tid)
            del self._tasks[task.tid]
            self.dispatchers[self.plan.shard_of(machine)].withdraw(task.tid, now)
            migrated.append(self.redispatch(task, now, reason="rebalance"))
        self.router_registry.counter("router_rebalance_applied_total").inc()
        self.router_registry.counter("router_rebalance_migrated_total").inc(len(migrated))
        self.router_registry.counter("router_rebalance_warmup_machines_total").inc(len(added))
        if version is not None:
            self.router_registry.gauge("router_placement_version").set(version)
        return migrated

    # -- fault surface -------------------------------------------------------
    def kill(self, machine: int) -> int:
        """Mark ``machine`` dead on its owning shard; returns the shard
        id.  Re-routing queued work is the service layer's job."""
        sid = self.plan.shard_of(machine)
        self.dispatchers[sid].kill(machine)
        return sid

    def redispatch(self, task: Task, now: float, reason: str = "failure") -> RoutedDecision:
        """Re-place a displaced task (machine failure) fleet-wide: the
        cross-shard handoff rule over every alive candidate."""
        return self._place_failed(task, self.plan.route(task.eligible(self.m)), now, reason)

    def revive(self, machine: int, now: float = 0.0) -> list[RoutedDecision]:
        """Revive ``machine`` and re-place every router-parked task
        whose set now intersects the fleet's alive machines, in park
        order (the engine's recovery rule)."""
        sid = self.plan.shard_of(machine)
        if machine in self.dispatchers[sid].alive:
            return []
        # The shard dispatcher holds no parked tasks (the router parks
        # before a doomed submit reaches a shard), so its revive only
        # flips the alive bit and records the metric.
        self.dispatchers[sid].revive(machine, now)
        return self._unpark(now)

    def _unpark(self, now: float) -> list[RoutedDecision]:
        """Re-place every router-parked task whose set now intersects
        the fleet's alive machines, in park order (the engine's
        recovery rule)."""
        replaced: list[RoutedDecision] = []
        for task in unpark(self.parked, self.alive(), self.m):
            replaced.append(self.redispatch(task, now, reason="unpark"))
            self.router_registry.counter("router_unparked_total").inc()
        self.router_registry.gauge("router_parked_now").set(len(self.parked))
        return replaced

    # -- supervision surface -------------------------------------------------
    def detach_shard(self, sid: int) -> None:
        """Mark shard ``sid`` down — its *process* died, so the router
        must stop routing to it regardless of the (stale) alive bits in
        its dispatcher's books.  Submits owned by a detached shard take
        the cross-shard failure path (least waiting work over every
        alive candidate elsewhere) or park when no shard can serve
        them.  Idempotent."""
        if not 0 <= sid < self.n_shards:
            raise ValueError(f"shard {sid} out of range [0, {self.n_shards})")
        if sid in self.down_shards:
            return
        self.down_shards.add(sid)
        self.router_registry.counter("router_detached_total").inc()
        self.router_registry.gauge("router_shards_down").set(len(self.down_shards))

    def reattach_shard(
        self, sid: int, dispatcher: Dispatcher | None = None, now: float = 0.0
    ) -> list[RoutedDecision]:
        """Rejoin shard ``sid`` after a restart.

        ``dispatcher`` (when given) replaces the shard's dispatcher
        with the journal-recovered instance — its books, scheduler
        state and metrics registry carry over from before the crash.
        Router-parked tasks whose sets the rejoined shard can now
        serve are re-placed in park order, exactly like a machine
        revival.  Returns those re-placements."""
        if not 0 <= sid < self.n_shards:
            raise ValueError(f"shard {sid} out of range [0, {self.n_shards})")
        if sid not in self.down_shards:
            return []
        if dispatcher is not None:
            if dispatcher.m != self.m:
                raise ValueError(
                    f"recovered dispatcher has m={dispatcher.m}, router has m={self.m}"
                )
            self.dispatchers[sid] = dispatcher
            if dispatcher.metrics is not None:
                self.shard_metrics[sid] = dispatcher.metrics
        self.down_shards.discard(sid)
        self.router_registry.counter("router_reattached_total").inc()
        self.router_registry.gauge("router_shards_down").set(len(self.down_shards))
        return self._unpark(now)

    # -- results -------------------------------------------------------------
    def schedule(self) -> Schedule:
        """The merged committed schedule across every shard, under the
        original (unfragmented) tasks."""
        inst = Instance(m=self.m, tasks=tuple(self._tasks.values()))
        return Schedule(inst, dict(self.placements))

    def shard_schedule(self, sid: int) -> Schedule:
        """Shard ``sid``'s own committed schedule (its dispatcher's
        books — fragment-restricted tasks appear restricted)."""
        return self.dispatchers[sid].schedule()

    def fleet_registry(self, members: bool = True) -> MetricsRegistry:
        """Per-shard + router metrics rolled into one registry
        (:func:`repro.obs.rollup.rollup_registries`)."""
        named = {f"shard{sid}": m.registry for sid, m in enumerate(self.shard_metrics)}
        named["router"] = self.router_registry
        return rollup_registries(named, members=members)

    #: the registry the service's metrics dumps and ``stats`` snapshot.
    registry = fleet_registry

    # -- service surface -----------------------------------------------------
    def machine_alive(self, machine: int) -> bool:
        """Whether a request may start on ``machine``: its owning shard's
        alive bit (a detached shard's lanes drain as they are)."""
        return machine in self.dispatchers[self.plan.shard_of(machine)].alive

    def on_complete(self, machine: int, wall_flow: float) -> None:
        """Record a finished request in its machine's shard metrics."""
        self.shard_metrics[self.plan.shard_of(machine)].on_complete(wall_flow)

    def on_error(self) -> None:
        """Count a rejected request frame (reported by :meth:`stats`)."""
        self.n_errors += 1

    def counter(self, name: str) -> Counter:
        """Counter ``name`` in the router registry, for what the service
        layer counts (dedupe hits)."""
        return self.router_registry.counter(name)

    def stats(self) -> dict[str, Any]:
        """Router counters plus per-shard dispatcher counters."""
        per_shard = []
        for sid, d in enumerate(self.dispatchers):
            lo, hi = self.plan.intervals[sid]
            per_shard.append(
                {
                    "shard": sid,
                    "machines": [lo, hi],
                    "alive": sorted(self.shard_alive(sid)),
                    "dispatched": d.n_dispatched,
                    "shed": d.n_shed,
                    "requeued": d.n_requeued,
                    "parked": len(d.parked),
                }
            )
        return {
            "m": self.m,
            "shards": per_shard,
            "down_shards": sorted(self.down_shards),
            "routed": self._routed.value,
            "handoffs": self.n_handoffs,
            "parked": len(self.parked),
            "shed": self.n_shed,
            "errors": self.n_errors,
        }
