"""Real-time online dispatch service.

The serving layer runs the paper's immediate-dispatch algorithms as a
live asyncio service rather than inside the discrete-event simulator:

* :mod:`~repro.serve.protocol` — length-prefixed JSON framing over
  unix sockets or TCP;
* :mod:`~repro.serve.dispatcher` — the virtual-clocked decision core,
  sharing the scheduler ``submit`` contract with the engine;
* :mod:`~repro.serve.admission` — bounded-queue backpressure and SLO
  load shedding keyed to the paper's waiting-work flow bound;
* :mod:`~repro.serve.metrics` — live :mod:`repro.obs` metrics
  (flow histograms, shed counters, queue-depth gauges, canonical
  snapshot dumps);
* :mod:`~repro.serve.frontend` — the one live service over either
  decision core (a :class:`Dispatcher`, or a :class:`ShardRouter` with
  ``ServeConfig(shards=N)``), fault kill/revive, the server loop
  (``repro serve``), over :mod:`~repro.serve.lanes` (the timer-driven
  machine lanes);
* :mod:`~repro.serve.driver` — the one client: open-loop Poisson load
  generation (``repro drive``) with retry and backoff, dedupe-keyed
  idempotent submits and a circuit breaker;
* :mod:`~repro.serve.shadow` — virtual-time replay proving the service
  (single or sharded) takes exactly the engine's decisions
  (golden-trace byte identity);
* :mod:`~repro.serve.loopback` — in-process service+driver runs
  (``repro bench-serve``);
* :mod:`~repro.serve.shard` — the sharded tier: :class:`ShardPlan`
  partitioning, the interval-aware :class:`ShardRouter` with
  cross-shard failure handoff, and the multi-process fleet harness
  (``repro bench-serve --shards N``, and with ``--chaos`` the
  end-to-end chaos benchmark);
* :mod:`~repro.serve.journal` — the write-ahead operation log that
  makes a dispatcher crash-recoverable (``Dispatcher.recover``);
* :mod:`~repro.serve.supervisor` — shard-process supervision: start,
  death detection, restart, journal replay, fleet rejoin.
"""

from .admission import SHED_QUEUE_FULL, SHED_SLO, AdmissionController, estimated_flow
from .dispatcher import (
    DISPATCHED,
    PARKED,
    REQUEUED,
    SHED,
    DispatchDecision,
    Dispatcher,
)
from .driver import (
    CircuitBreaker,
    ClientResilience,
    DriveReport,
    ResilienceExhausted,
    build_drive_instance,
    drive,
    percentile,
)
from .frontend import AddressInUseError, ServeConfig, ServeService, build_service, serve
from .journal import (
    Journal,
    JournalCorruptError,
    JournalError,
    JournalRecord,
    Recovery,
)
from .loopback import run_loopback, run_loopback_sync
from .metrics import ServeMetrics
from .protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    FrameTooLargeError,
    ProtocolError,
    decode_frame,
    encode_frame,
    check_version,
    read_frame,
    task_from_wire,
    task_to_wire,
    version_error,
    versioned,
    write_frame,
)
from .supervisor import ShardSupervisor
from .shadow import (
    check_shadow_golden,
    check_shard_shadow_golden,
    shadow_golden_trace,
    shadow_replay,
    shadow_trace,
    shard_shadow_replay,
    shard_shadow_traces,
)
from .shard import (
    Route,
    RoutedDecision,
    ShardBenchResult,
    ShardPlan,
    ShardRouter,
    partition_instance,
    plan_for_instance,
    run_sharded_loopback_sync,
)

__all__ = [
    "AddressInUseError",
    "AdmissionController",
    "CircuitBreaker",
    "ClientResilience",
    "DISPATCHED",
    "DispatchDecision",
    "Dispatcher",
    "DriveReport",
    "FrameTooLargeError",
    "Journal",
    "JournalCorruptError",
    "JournalError",
    "JournalRecord",
    "MAX_FRAME",
    "PARKED",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "REQUEUED",
    "Recovery",
    "ResilienceExhausted",
    "Route",
    "RoutedDecision",
    "SHED",
    "SHED_QUEUE_FULL",
    "SHED_SLO",
    "ServeConfig",
    "ServeMetrics",
    "ServeService",
    "ShardBenchResult",
    "ShardPlan",
    "ShardRouter",
    "ShardSupervisor",
    "build_drive_instance",
    "build_service",
    "check_shadow_golden",
    "check_shard_shadow_golden",
    "check_version",
    "decode_frame",
    "drive",
    "encode_frame",
    "estimated_flow",
    "partition_instance",
    "percentile",
    "plan_for_instance",
    "read_frame",
    "run_loopback",
    "run_loopback_sync",
    "run_sharded_loopback_sync",
    "serve",
    "shadow_golden_trace",
    "shadow_replay",
    "shadow_trace",
    "shard_shadow_replay",
    "shard_shadow_traces",
    "task_from_wire",
    "task_to_wire",
    "version_error",
    "versioned",
    "write_frame",
]
