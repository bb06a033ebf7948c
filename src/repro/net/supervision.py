"""Self-healing links: reconnect supervision and sequence dedup.

The paper's degradation tiers (D.1–D.4) are only meaningful if the runtime
*survives* its faults long enough to classify them.  This module wraps any
:class:`~repro.net.transport.Transport` in a :class:`SupervisedTransport`
that keeps each directed link alive through connection resets and endpoint
restarts, and converts what it cannot heal into the one fault the model
already understands — a detectable absence, resolved to ``V_d`` at the
round deadline (assumption (b)):

* **Reconnect with capped exponential backoff + seeded jitter.**  A send
  that fails with a transport error is retried after
  :func:`backoff_delay`; the underlying transport re-dials on the
  retry (its pooled connection was evicted by the failure).  A send that
  still fails when the budget is exhausted raises
  :class:`~repro.exceptions.TransportError` like any unsupervised send;
  the runner meters it as a send failure — the receiver sees absence,
  fault accounting charges the link's source, and the D.1–D.4 verdict is
  unchanged versus the sync engine.

* **Idempotent resume.**  Every supervised frame is stamped with a
  per-directed-link sequence number (``Frame.seq``); the receive side
  remembers the numbers it admitted within ``dedup_window`` of the
  link's high-water mark and drops replays, so a frame retransmitted
  across a reconnect is deduplicated, never double-delivered.  The window
  tolerates reordering: an out-of-order *new* sequence number is
  delivered normally (a high-water mark alone would manufacture losses
  under chaos reordering).

The supervisor detects nothing: absence has one detector, the runner's
round deadline.  A peer that is gone costs each of its frames at most
the backoff budget, then counts as an absence at the deadline.

Layering: the supervisor composes *above* chaos
(``Supervised(Chaos(Tcp))``), so injected connection resets and endpoint
restarts exercise the real reconnect path, while injected frame chaos
still reaches the protocol.  Determinism survives because the supervisor
adds randomness only through its injected jitter RNG, which is consulted
only when a send actually fails.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Sequence, Set, Tuple

from repro.exceptions import ConfigurationError, TransportError
from repro.net.codec import Frame
from repro.net.transport import Transport, TransportLayer

NodeId = Hashable
Link = Tuple[NodeId, NodeId]


#: Send attempts per frame before the link counts as unhealed.
MAX_ATTEMPTS = 4
#: Backoff before the first retry; each later retry doubles it ...
BASE_DELAY = 0.01
#: ... up to this cap.
MAX_DELAY = 0.25
#: Each backoff is stretched by up to this fraction, drawn from the
#: supervisor's RNG (never the global one: a seed replays the schedule).
JITTER = 0.25


def backoff_delay(attempt: int, rng: random.Random) -> float:
    """Backoff before retry *attempt* (1-based), jittered from *rng*."""
    raw = min(BASE_DELAY * 2.0 ** (attempt - 1), MAX_DELAY)
    return raw * (1.0 + JITTER * rng.random())


@dataclass
class LinkSupervisor:
    """Receive-side dedup state of one directed link."""

    #: Admitted sequence numbers in ``(high_seq - dedup_window, high_seq]``.
    seen: Set[int] = field(default_factory=set)
    #: Highest sequence number delivered so far.
    high_seq: int = 0


class SupervisedTransport(TransportLayer):
    """Self-healing wrapper: re-dials with backoff and dedups replays."""

    layer = "supervised"

    def __init__(
        self,
        inner: Transport,
        rng: Optional[random.Random] = None,
        dedup_window: int = 4096,
    ) -> None:
        if dedup_window < 1:
            raise ConfigurationError(
                f"dedup_window must be >= 1, got {dedup_window}"
            )
        super().__init__(inner)
        self.rng = rng if rng is not None else random.Random(0)
        self.dedup_window = dedup_window
        self._links: Dict[Link, LinkSupervisor] = {}
        self._next_seq: Dict[Link, int] = {}

    async def open(self, nodes: Sequence[NodeId]) -> None:
        await self.inner.open(nodes)
        self._links = {}
        self._next_seq = {}

    def link(self, source: NodeId, destination: NodeId) -> LinkSupervisor:
        key = (source, destination)
        if key not in self._links:
            self._links[key] = LinkSupervisor()
        return self._links[key]

    # ------------------------------------------------------------------
    # Send path: stamp, retry with backoff, raise once the budget is spent
    # ------------------------------------------------------------------
    async def send(self, frame: Frame) -> int:
        link = (frame.source, frame.destination)
        seq = self._next_seq.get(link, 0) + 1
        self._next_seq[link] = seq
        frame = Frame(
            frame.kind, frame.round_no, frame.source, frame.destination,
            frame.message, frame.sent_at, frame.messages, frame.mark,
            frame.instance, seq, frame.trace,
        )
        loop = asyncio.get_running_loop()
        outage_started: Optional[float] = None
        heal_span = None
        for attempt in range(1, MAX_ATTEMPTS + 1):
            try:
                nbytes = await self.inner.send(frame)
            except TransportError:
                if outage_started is None:
                    outage_started = loop.time()
                    if self.tracer is not None:
                        heal_span = self.tracer.begin(
                            "link_heal",
                            "supervision",
                            parent=frame.trace,
                            round_no=frame.round_no,
                            source=frame.source,
                            destination=frame.destination,
                            seq=seq,
                        )
                if attempt >= MAX_ATTEMPTS:
                    break
                delay = backoff_delay(attempt, self.rng)
                if heal_span is not None:
                    self.tracer.event(
                        heal_span,
                        "backoff",
                        attempt=attempt,
                        delay=delay,
                    )
                await asyncio.sleep(delay)
                continue
            if outage_started is not None:
                seconds = loop.time() - outage_started
                self.metrics.record_outage(*link, seconds)
                self.metrics.publish(
                    "link_outage",
                    source=str(link[0]),
                    destination=str(link[1]),
                    seconds=seconds,
                    healed=True,
                )
            if heal_span is not None:
                self.tracer.end(heal_span, healed=True)
            return nbytes
        # Retry budget exhausted: the outage window closes unhealed and the
        # caller records the frame absent.
        seconds = loop.time() - outage_started
        self.metrics.record_outage(*link, seconds)
        self.metrics.publish(
            "link_outage",
            source=str(link[0]),
            destination=str(link[1]),
            seconds=seconds,
            healed=False,
        )
        if heal_span is not None:
            self.tracer.end(heal_span, healed=False)
        raise TransportError(
            f"link {link[0]!r} -> {link[1]!r} unhealed after "
            f"{attempt} attempt(s)"
        )

    # ------------------------------------------------------------------
    # Receive path: dedup replays
    # ------------------------------------------------------------------
    async def recv(self, node: NodeId) -> Frame:
        while True:
            frame = await self.inner.recv(node)
            if frame.seq is None or self._admit(frame, node):
                return frame

    def recv_nowait(self, node: NodeId) -> Optional[Frame]:
        while True:
            frame = self.inner.recv_nowait(node)
            if frame is None or frame.seq is None or self._admit(frame, node):
                return frame

    def _admit(self, frame: Frame, node: NodeId) -> bool:
        """Receive-side dedup: True when *frame* is not a replay.

        Raising ``high_seq`` forgets the numbers that fell below the new
        floor (``high_seq - dedup_window``) — at most one window's worth,
        so a forged huge ``seq`` costs one window and a steady link O(1)
        per frame.  A number at or below the floor is admitted
        unremembered.
        """
        link = (frame.source, node)
        sup = self.link(*link)
        seq = frame.seq
        high = sup.high_seq
        window = self.dedup_window
        if seq > high:
            for old in range(high - window + 1, min(seq - window, high) + 1):
                sup.seen.discard(old)
            sup.seen.add(seq)
            sup.high_seq = seq
            return True
        if seq <= high - window:
            return True
        if seq in sup.seen:
            self.metrics.record_dedup(*link)
            return False
        sup.seen.add(seq)
        return True
