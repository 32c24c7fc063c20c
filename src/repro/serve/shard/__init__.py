"""Sharded serve tier: N dispatcher shards behind an interval-aware router.

Scales :mod:`repro.serve` from one dispatcher to a fleet, on the
paper's own structure:

* :mod:`~repro.serve.shard.plan` — :class:`ShardPlan`, partitioning
  machines ``1..m`` into contiguous shard intervals: exact disjoint
  partitions (Theorem 6 composition, zero cross-talk) and interval
  covers for overlapping rings with an explicit bounded handoff set;
* :mod:`~repro.serve.shard.router` — :class:`ShardRouter`, the
  virtual-clocked decision tier: shard-local dispatch, shard-local
  admission, deterministic cross-shard failure handoff via the
  engine's least-waiting-work rule;
* :mod:`~repro.serve.shard.bench` — the one multi-process fleet
  harness: one supervised server process per shard with client-side
  routing, optionally journalled behind chaos proxies with a shard
  killed mid-drive (``repro bench-serve --shards N [--chaos]``).

The in-process router service is the one
:class:`~repro.serve.frontend.ServeService`, built over a
:class:`ShardRouter` by ``ServeConfig(shards=N)`` with ``N > 1``
(``repro serve --shards N`` / ``repro serve-sharded``); it answers the
same wire protocol plus the ``route``, ``detach-shard`` and
``reattach-shard`` ops, with fleet-rollup metrics.  Sharded shadow
mode (golden byte-identity on disjoint plans, merged and per shard)
lives with the single-dispatcher one in :mod:`repro.serve.shadow`.
"""

from .bench import (
    ShardBenchResult,
    partition_instance,
    plan_for_instance,
    run_sharded_loopback_sync,
)
from .plan import Route, ShardPlan
from .router import RoutedDecision, ShardRouter

__all__ = [
    "Route",
    "RoutedDecision",
    "ShardBenchResult",
    "ShardPlan",
    "ShardRouter",
    "partition_instance",
    "plan_for_instance",
    "run_sharded_loopback_sync",
]
