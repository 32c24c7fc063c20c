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
* :mod:`~repro.serve.frontend` — the service, fault kill/revive, the
  server loop (``repro serve``), over :mod:`~repro.serve.lanes` (the
  timer-driven machine lanes both services share);
* :mod:`~repro.serve.driver` — open-loop Poisson load generation
  (``repro drive``);
* :mod:`~repro.serve.shadow` — virtual-time replay proving the service
  takes exactly the engine's decisions (golden-trace byte identity);
* :mod:`~repro.serve.loopback` — in-process service+driver runs
  (``repro bench-serve``);
* :mod:`~repro.serve.shard` — the sharded tier: :class:`ShardPlan`
  partitioning, the interval-aware :class:`ShardRouter` with
  cross-shard failure handoff, the ``serve-sharded`` frontend and the
  multi-process ``bench-serve --shards N`` driver;
* :mod:`~repro.serve.journal` — the write-ahead operation log that
  makes a dispatcher crash-recoverable (``Dispatcher.recover``);
* :mod:`~repro.serve.supervisor` — shard-process supervision: death
  detection, restart, journal replay, fleet rejoin;
* :mod:`~repro.serve.resilient` — the chaos-tolerant client driver:
  retry with backoff, dedupe-keyed idempotent submits, circuit
  breaker;
* :mod:`~repro.serve.chaosbench` — the end-to-end chaos benchmark
  (``repro bench-serve --chaos``).
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
from .chaosbench import ChaosBenchResult, run_chaos_loopback, run_chaos_loopback_sync
from .driver import DriveReport, build_drive_instance, drive, percentile
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
from .resilient import CircuitBreaker, ClientResilience, ResilienceExhausted, drive_resilient
from .supervisor import ShardSupervisor
from .shadow import check_shadow_golden, shadow_golden_trace, shadow_replay, shadow_trace
from .shard import (
    Route,
    RoutedDecision,
    ShardPlan,
    ShardRouter,
    ShardServeConfig,
    ShardServeService,
    build_sharded_service,
    check_shard_shadow_golden,
    partition_instance,
    plan_for_instance,
    run_sharded_loopback,
    run_sharded_loopback_sync,
    serve_sharded,
    shard_shadow_replay,
    shard_shadow_traces,
)

__all__ = [
    "AddressInUseError",
    "AdmissionController",
    "ChaosBenchResult",
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
    "ShardPlan",
    "ShardRouter",
    "ShardServeConfig",
    "ShardServeService",
    "ShardSupervisor",
    "build_drive_instance",
    "build_service",
    "build_sharded_service",
    "check_shadow_golden",
    "check_shard_shadow_golden",
    "check_version",
    "decode_frame",
    "drive",
    "drive_resilient",
    "encode_frame",
    "estimated_flow",
    "partition_instance",
    "percentile",
    "plan_for_instance",
    "read_frame",
    "run_chaos_loopback",
    "run_chaos_loopback_sync",
    "run_loopback",
    "run_loopback_sync",
    "run_sharded_loopback",
    "run_sharded_loopback_sync",
    "serve",
    "serve_sharded",
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
