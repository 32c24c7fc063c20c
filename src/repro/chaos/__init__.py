"""Deterministic protocol-level chaos for the serve tier.

`repro.chaos` sits *between* a protocol client and a dispatch service
and injects the failures a real network delivers — dropped
connections, latency, partial writes, corrupt and truncated frames,
duplicate deliveries — from a seeded PRNG, so a chaos run is exactly
reproducible: same seed, same faults, same order.

The two halves:

:class:`~repro.chaos.config.ChaosConfig`
    the fault mix (per-frame probabilities + latency bound) and seed;
:class:`~repro.chaos.proxy.ChaosProxy`
    a frame-aware asyncio proxy that listens on its own endpoint,
    forwards length-prefixed JSON frames to the upstream service, and
    applies at most one fault per frame from a per-connection,
    per-direction :class:`random.Random` derived via
    :func:`repro.campaigns.spec.stable_seed`.

Chaos only makes sense against a resilient client — the one drive
client, :func:`repro.serve.driver.drive`: retries with backoff,
dedupe-keyed idempotent submits, and a circuit breaker turn injected
faults into measured retries instead of lost work.
"""

from .config import ChaosConfig
from .proxy import ChaosProxy

__all__ = ["ChaosConfig", "ChaosProxy"]
