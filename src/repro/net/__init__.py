"""repro.net — asyncio message-bus runtime for the agreement protocols.

The simulator (:mod:`repro.sim`) enforces the paper's model structurally:
lock-step rounds, guaranteed delivery, absence by construction.  This
package runs the *same protocol state machines* over real transports with
real deadlines:

* :class:`Transport` — the wire abstraction;
  :class:`LocalBus` (in-process asyncio queues, zero-copy fan-out) and
  :class:`TcpTransport` (length-prefixed JSON frames over localhost
  sockets);
* :class:`AsyncRoundRunner` — drives a
  :class:`~repro.core.protocol.ProtocolSession` round by round with
  per-round deadlines; a missed deadline *is* the paper's assumption (b):
  the receiver detects the absence and substitutes ``V_d``.  Each frame
  is sent once; a send error is a metered loss, i.e. one more absence;
* faults — the runner calls the synchronous engine's own
  :meth:`~repro.sim.engine.SynchronousEngine.emit` for the protocol half
  of a round, so every :class:`~repro.sim.engine.FaultInjector` and
  Byzantine behaviour acts on the wire exactly as in the simulator, and
  :class:`~repro.sim.faults.CrashInjector` also mutes a node's
  end-of-round markers so timeouts are exercised for real;
* :class:`NetMetrics` — per-round message/byte counts, latency
  percentiles, send failures, timeout substitutions, chaos counters;
* :class:`SupervisedTransport` — the self-healing layer: per-link
  reconnect supervision with capped, seeded exponential backoff (fixed
  constants in :mod:`repro.net.supervision`) and idempotent frame-stream
  resume via per-link sequence numbers — a send that cannot be healed is a metered
  loss, i.e. one more absence the round deadline resolves to ``V_d``;
* :mod:`repro.net.chaos` — a seeded network-chaos layer
  (:class:`ChaosTransport` around any transport: loss, duplication,
  reordering, corruption, partitions, crashes) plus soak campaigns that
  assert the paper's D.1–D.4 tiers against the chaos actually injected
  (``python -m repro chaos``).

Quickstart::

    import asyncio
    from repro import DegradableSpec
    from repro.net import TcpTransport, run_agreement_async

    spec = DegradableSpec(m=1, u=2, n_nodes=5)
    nodes = ["S", "p1", "p2", "p3", "p4"]
    outcome = asyncio.run(run_agreement_async(
        spec, nodes, "S", "engage", transport=TcpTransport(),
    ))
    print(outcome.decisions)          # same verdicts as the sync engine
    print(outcome.metrics.render())   # the wire story

Or from the command line: ``python -m repro net --transport tcp``.
"""

from repro.net.codec import (
    BATCH,
    DATA,
    MARK,
    Frame,
    FrameDecoder,
    decode_frame,
    encode_frame,
    from_jsonable,
    pack_frame,
    to_jsonable,
)
from repro.net.metrics import NetMetrics, RoundMetrics
from repro.net.runner import (
    AsyncRoundRunner,
    NetRunOutcome,
    run_agreement_async,
)
from repro.net.stack import build_stack, make_transport
from repro.net.supervision import SupervisedTransport
from repro.net.tcp import TcpTransport
from repro.net.transport import LocalBus, Transport, TransportLayer

# Chaos imports the runner — keep this after the core modules above.
from repro.net.chaos import (
    ChaosLog,
    ChaosPolicy,
    ChaosTransport,
    Crash,
    Partition,
    make_policy,
    partition_injector,
    run_trial_sync,
)

__all__ = [
    "AsyncRoundRunner",
    "BATCH",
    "ChaosLog",
    "ChaosPolicy",
    "ChaosTransport",
    "Crash",
    "DATA",
    "Frame",
    "FrameDecoder",
    "LocalBus",
    "MARK",
    "NetMetrics",
    "NetRunOutcome",
    "Partition",
    "RoundMetrics",
    "SupervisedTransport",
    "TcpTransport",
    "Transport",
    "TransportLayer",
    "build_stack",
    "decode_frame",
    "encode_frame",
    "from_jsonable",
    "make_policy",
    "make_transport",
    "pack_frame",
    "partition_injector",
    "run_agreement_async",
    "run_trial_sync",
    "to_jsonable",
]
