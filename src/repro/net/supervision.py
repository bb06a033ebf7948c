"""Self-healing links: reconnect supervision and heartbeat failure detection.

The paper's degradation tiers (D.1–D.4) are only meaningful if the runtime
*survives* its faults long enough to classify them.  This module wraps any
:class:`~repro.net.transport.Transport` in a :class:`SupervisedTransport`
that keeps each directed link alive through connection resets and endpoint
restarts, and converts what it cannot heal into the one fault the model
already understands — a detectable absence, resolved to ``V_d`` at the
round deadline (assumption (b)):

* **Reconnect with capped exponential backoff + seeded jitter.**  A send
  that fails with a transport error is retried after
  :meth:`BackoffPolicy.delay`; the underlying transport re-dials on the
  retry (its pooled connection was evicted by the failure).  A send that
  still fails when the budget is exhausted raises
  :class:`~repro.exceptions.TransportError` like any unsupervised send;
  the runner meters it as a send failure — the receiver sees absence,
  fault accounting charges the link's source, and the D.1–D.4 verdict is
  unchanged versus the sync engine.

* **Idempotent resume.**  Every supervised frame is stamped with a
  per-directed-link sequence number (``Frame.seq``); the receive side
  keeps a bounded window of seen numbers per link and drops replays, so a
  frame retransmitted across a reconnect is deduplicated, never
  double-delivered.  The window tolerates reordering: an out-of-order
  *new* sequence number is delivered normally (a high-water mark would
  manufacture losses under chaos reordering).

* **Heartbeat failure detector.**  With a :class:`HeartbeatPolicy`, idle
  links are probed with PING frames; answered probes (PONG) feed RTT
  samples into :class:`~repro.net.metrics.NetMetrics`, unanswered ones
  advance a per-link ``alive → suspect → dead`` state machine.  A dead
  link opens a circuit breaker: sends stop burning retry budget and
  raise immediately (fast-fail, metered per link) until a probe is
  answered again.  Heartbeats are link-plumbing, not protocol traffic —
  the chaos layer forwards them without consuming RNG draws, and the
  dedup window ignores them.

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
from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, Optional, Sequence, Set, Tuple

from repro.exceptions import ConfigurationError, TransportError
from repro.net.codec import PING, PONG, Frame
from repro.net.transport import Transport, TransportLayer

NodeId = Hashable
Link = Tuple[NodeId, NodeId]

#: Failure-detector verdicts for one directed link.
ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"

LINK_STATES = (ALIVE, SUSPECT, DEAD)


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with seeded jitter for link re-dials.

    Attempt *k* (1-based) sleeps ``base_delay * multiplier**(k-1)`` capped
    at ``max_delay``, stretched by up to ``jitter`` (a fraction) drawn
    from the supervisor's injected RNG — never the global one, so a seed
    reproduces the exact retry schedule.
    """

    max_attempts: int = 4
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 0.25
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ConfigurationError(
                f"delays must satisfy 0 <= base <= max, got "
                f"base={self.base_delay}, max={self.max_delay}"
            )
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry *attempt* (1-based), jittered from *rng*."""
        raw = min(
            self.base_delay * self.multiplier ** (attempt - 1), self.max_delay
        )
        if self.jitter <= 0.0 or raw <= 0.0:
            return raw
        return raw * (1.0 + self.jitter * rng.random())


@dataclass(frozen=True)
class HeartbeatPolicy:
    """Cadence and thresholds of the PING/PONG failure detector.

    A link idle for longer than ``interval`` is probed; ``suspect_after``
    consecutive unanswered probes demote it to *suspect*, ``dead_after``
    to *dead* (circuit open).  Dead links keep being probed — one answered
    probe revives them — so a healed link closes its own circuit.
    """

    interval: float = 0.5
    suspect_after: int = 2
    dead_after: int = 4

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError(
                f"heartbeat interval must be > 0, got {self.interval}"
            )
        if self.suspect_after < 1 or self.dead_after <= self.suspect_after:
            raise ConfigurationError(
                f"thresholds must satisfy 1 <= suspect_after < dead_after, "
                f"got suspect_after={self.suspect_after}, "
                f"dead_after={self.dead_after}"
            )


@dataclass
class LinkSupervisor:
    """Mutable per-directed-link supervision state."""

    state: str = ALIVE
    #: Consecutive unanswered probes / failed sends.
    misses: int = 0
    #: A probe is in flight and unanswered.
    ping_outstanding: bool = False
    #: Monotonic timestamp of the last successful traffic on the link.
    last_activity: float = 0.0
    #: Sequence numbers already delivered (receive side), bounded window.
    seen: Set[int] = field(default_factory=set)
    #: Highest sequence number delivered so far.
    high_seq: int = 0


class SupervisedTransport(TransportLayer):
    """Self-healing wrapper: reconnects, dedups, and detects dead links."""

    layer = "supervised"

    def __init__(
        self,
        inner: Transport,
        backoff: Optional[BackoffPolicy] = None,
        heartbeat: Optional[HeartbeatPolicy] = None,
        rng: Optional[random.Random] = None,
        dedup_window: int = 4096,
    ) -> None:
        if dedup_window < 1:
            raise ConfigurationError(
                f"dedup_window must be >= 1, got {dedup_window}"
            )
        super().__init__(inner)
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.heartbeat = heartbeat
        self.rng = rng if rng is not None else random.Random(0)
        self.dedup_window = dedup_window
        self._nodes: Tuple[NodeId, ...] = ()
        self._links: Dict[Link, LinkSupervisor] = {}
        self._next_seq: Dict[Link, int] = {}
        self._heartbeat_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def open(self, nodes: Sequence[NodeId]) -> None:
        await self.inner.open(nodes)
        self._nodes = tuple(nodes)
        self._links = {}
        self._next_seq = {}
        if self.heartbeat is not None:
            self._heartbeat_task = asyncio.ensure_future(
                self._heartbeat_loop()
            )

    async def close(self) -> None:
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
            self._heartbeat_task = None
        await self.inner.close()

    # ------------------------------------------------------------------
    # Link state
    # ------------------------------------------------------------------
    def link(self, source: NodeId, destination: NodeId) -> LinkSupervisor:
        key = (source, destination)
        if key not in self._links:
            self._links[key] = LinkSupervisor()
        return self._links[key]

    def link_states(self) -> Dict[Link, str]:
        """Current failure-detector verdict per supervised link."""
        return {link: sup.state for link, sup in self._links.items()}

    def _transition(self, link: Link, sup: LinkSupervisor, state: str) -> None:
        if sup.state == state:
            return
        sup.state = state
        if self.metrics is not None:
            self.metrics.record_link_state(link[0], link[1], state)

    def _note_miss(self, link: Link, sup: LinkSupervisor) -> None:
        sup.misses += 1
        hb = self.heartbeat
        if hb is None:
            return
        if sup.misses >= hb.dead_after:
            self._transition(link, sup, DEAD)
        elif sup.misses >= hb.suspect_after:
            self._transition(link, sup, SUSPECT)

    def _note_alive(self, link: Link, sup: LinkSupervisor) -> None:
        sup.misses = 0
        sup.ping_outstanding = False
        sup.last_activity = asyncio.get_running_loop().time()
        self._transition(link, sup, ALIVE)

    # ------------------------------------------------------------------
    # Send path: stamp, retry with backoff, raise once the budget is spent
    # ------------------------------------------------------------------
    async def send(self, frame: Frame) -> int:
        if frame.kind in (PING, PONG):
            return await self.inner.send(frame)
        link = (frame.source, frame.destination)
        sup = self.link(*link)
        if sup.state == DEAD:
            # Circuit open: no dialing, no retry budget — the caller books
            # the loss immediately (absence → V_d at the receiver).
            if self.metrics is not None:
                self.metrics.record_fast_fail(*link)
            if self.tracer is not None:
                self.tracer.instant(
                    "fast_fail",
                    "supervision",
                    parent=frame.trace,
                    round_no=frame.round_no,
                    source=frame.source,
                    destination=frame.destination,
                )
            raise TransportError(
                f"link {link[0]!r} -> {link[1]!r} is dead (circuit open)"
            )
        seq = self._next_seq.get(link, 0) + 1
        self._next_seq[link] = seq
        frame = replace(frame, seq=seq)
        loop = asyncio.get_running_loop()
        outage_started: Optional[float] = None
        heal_span = None
        for attempt in range(1, self.backoff.max_attempts + 1):
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
                self._note_miss(link, sup)
                if attempt >= self.backoff.max_attempts or sup.state == DEAD:
                    break
                backoff_delay = self.backoff.delay(attempt, self.rng)
                if heal_span is not None:
                    self.tracer.event(
                        heal_span,
                        "backoff",
                        attempt=attempt,
                        delay=backoff_delay,
                    )
                await asyncio.sleep(backoff_delay)
                continue
            if outage_started is not None and self.metrics is not None:
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
            self._note_alive(link, sup)
            return nbytes
        # Retry budget exhausted (or the link died mid-retry): the outage
        # window closes unhealed and the caller records the frame absent.
        if self.metrics is not None:
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

    async def send_corrupted(self, frame: Frame, rng: random.Random) -> int:
        # Chaos-injected corruption bypasses supervision on purpose: the
        # frame is *meant* to be lost, healing it would undo the fault.
        link = (frame.source, frame.destination)
        seq = self._next_seq.get(link, 0) + 1
        self._next_seq[link] = seq
        return await self.inner.send_corrupted(replace(frame, seq=seq), rng)

    # ------------------------------------------------------------------
    # Receive path: answer pings, fold pongs, dedup replays
    # ------------------------------------------------------------------
    async def recv(self, node: NodeId) -> Frame:
        while True:
            frame = await self.inner.recv(node)
            if frame.kind == PING:
                pong = Frame(
                    kind=PONG,
                    round_no=0,
                    source=node,
                    destination=frame.source,
                    sent_at=frame.sent_at,
                )
                try:
                    await self.inner.send(pong)
                except TransportError:
                    pass
                continue
            if frame.kind == PONG:
                # The echo answers our probe on (node -> frame.source).
                link = (node, frame.source)
                self._note_alive(link, self.link(*link))
                if self.metrics is not None:
                    rtt = asyncio.get_running_loop().time() - frame.sent_at
                    self.metrics.record_heartbeat_rtt(*link, rtt)
                continue
            if frame.seq is not None and not self._admit(frame, node):
                continue
            # Delivered traffic proves the forward link works.
            self._note_alive((frame.source, node), self.link(frame.source, node))
            return frame

    def _admit(self, frame: Frame, node: NodeId) -> bool:
        """Receive-side dedup: True when *frame* is not a replay."""
        link = (frame.source, node)
        sup = self.link(*link)
        seq = frame.seq
        if seq in sup.seen:
            if self.metrics is not None:
                self.metrics.record_dedup(*link)
            return False
        sup.seen.add(seq)
        if seq > sup.high_seq:
            sup.high_seq = seq
        if len(sup.seen) > self.dedup_window:
            floor = sup.high_seq - self.dedup_window
            sup.seen = {s for s in sup.seen if s > floor}
        return True

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        hb = self.heartbeat
        assert hb is not None
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(hb.interval)
            now = loop.time()
            for source in self._nodes:
                for destination in self._nodes:
                    if source == destination:
                        continue
                    link = (source, destination)
                    sup = self.link(*link)
                    if now - sup.last_activity < hb.interval:
                        continue  # link carried traffic recently
                    if sup.ping_outstanding:
                        self._note_miss(link, sup)
                    ping = Frame(
                        kind=PING,
                        round_no=0,
                        source=source,
                        destination=destination,
                        sent_at=loop.time(),
                    )
                    try:
                        await self.inner.send(ping)
                    except TransportError:
                        self._note_miss(link, sup)
                        if self.tracer is not None:
                            self.tracer.instant(
                                "heartbeat_probe",
                                "supervision",
                                source=source,
                                destination=destination,
                                delivered=False,
                                state=sup.state,
                            )
                        continue
                    sup.ping_outstanding = True
                    if self.metrics is not None:
                        self.metrics.record_heartbeat(*link)
                    # Cadence-driven, so probe spans exist only on runs with
                    # a HeartbeatPolicy armed; the span-id determinism suite
                    # runs without one (probe *count* is wall-clock shaped).
                    if self.tracer is not None:
                        self.tracer.instant(
                            "heartbeat_probe",
                            "supervision",
                            source=source,
                            destination=destination,
                            delivered=True,
                            state=sup.state,
                        )
