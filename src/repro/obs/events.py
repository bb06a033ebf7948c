"""Structured observability event bus.

The runtime's layers — :class:`~repro.net.runner.AsyncRoundRunner`,
:class:`~repro.net.supervision.SupervisedTransport`,
:class:`~repro.serve.mux.InstanceMux`,
:class:`~repro.serve.gateway.AgreementService` — publish lifecycle events
here: rounds starting and closing, link re-dials and outages, instances
admitted / rejected / decided, D.1–D.4 tier verdicts.  An
operator (or the ``/events`` HTTP route) subscribes to watch a live run
degrade and recover in real time.

Design constraints, enforced by the determinism suite:

* **Zero RNG.**  Publishing draws nothing from any ``random.Random`` —
  an observed run and an unobserved run consume identical draw
  sequences, so same-seed chaos campaigns fingerprint identically with
  the bus attached or absent.
* **Never in the fingerprint.**  Events carry wall-clock timestamps for
  operators; nothing derived from them may reach
  :meth:`~repro.net.metrics.NetMetrics.counters`.
* **Fail-open.**  A subscriber that raises is counted
  (:attr:`EventBus.subscriber_errors`) and dropped for that event, never
  allowed to break the protocol path that published.

The bus is deliberately synchronous and loop-agnostic: ``publish`` is a
plain function call (cheap enough for per-round hooks), and the bounded
ring buffer of recent events is what the HTTP layer serves.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Mapping, Optional

__all__ = [
    "EventBus",
    "ObsEvent",
    "ENDPOINT_RESTART",
    "INSTANCE_ADMITTED",
    "INSTANCE_DECIDED",
    "INSTANCE_REJECTED",
    "LINK_OUTAGE",
    "LINK_RECONNECT",
    "ROUND_CLOSED",
    "ROUND_STARTED",
    "SERVICE_STARTED",
    "SERVICE_STOPPED",
    "STRAY_FRAME",
]

# Canonical event kinds.  Publishers are free to mint new kinds — these
# constants exist so subscribers and tests spell the common ones once.
ROUND_STARTED = "round_started"
ROUND_CLOSED = "round_closed"
LINK_RECONNECT = "link_reconnect"
LINK_OUTAGE = "link_outage"
ENDPOINT_RESTART = "endpoint_restart"
STRAY_FRAME = "stray_frame"
INSTANCE_ADMITTED = "instance_admitted"
INSTANCE_REJECTED = "instance_rejected"
INSTANCE_DECIDED = "instance_decided"
SERVICE_STARTED = "service_started"
SERVICE_STOPPED = "service_stopped"


@dataclass(frozen=True)
class ObsEvent:
    """One published observability event.

    ``seq`` is a bus-local monotonic ordinal (the deterministic ordering
    handle); ``ts`` is a wall-clock timestamp for operators only and must
    never feed a determinism fingerprint.
    """

    seq: int
    kind: str
    data: Mapping[str, object]
    ts: float = field(compare=False, default=0.0)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable rendition (the ``/events`` wire shape)."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "ts": round(self.ts, 6),
            "data": dict(self.data),
        }


Subscriber = Callable[[ObsEvent], None]


class EventBus:
    """Bounded in-process pub/sub for observability events."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._recent: Deque[ObsEvent] = deque(maxlen=capacity)
        self._subscribers: List[Subscriber] = []
        self._seq = 0
        #: Events published per kind, since the bus was created.  Exported
        #: as ``repro_obs_events_total{kind=...}`` — observability about
        #: the observability, never part of a fingerprint.
        self.counts: Dict[str, int] = {}
        #: Subscriber callbacks that raised (the event still reached every
        #: other subscriber and the ring buffer).
        self.subscriber_errors = 0
        #: Events the bounded ring has evicted to make room — each one is
        #: an event ``recent()`` (and the ``/events`` route) can no longer
        #: serve.  Exported as ``repro_obs_events_dropped_total`` so a
        #: too-small ring is visible instead of silently lossy.
        #: Subscribers always saw the event; only the replay buffer lost it.
        self.events_dropped = 0

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, kind: str, **data: object) -> ObsEvent:
        """Publish one event; returns it (mostly for tests).

        Draws no randomness and raises nothing on the publisher's behalf:
        a failing subscriber is counted and skipped.
        """
        self._seq += 1
        event = ObsEvent(
            seq=self._seq, kind=kind, data=data, ts=time.time()
        )
        if len(self._recent) == self.capacity:
            # The deque is about to evict its oldest event: count the
            # overflow instead of overwriting silently.
            self.events_dropped += 1
        self._recent.append(event)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        for subscriber in self._subscribers:
            try:
                subscriber(event)
            except Exception:
                self.subscriber_errors += 1
        return event

    # ------------------------------------------------------------------
    # Subscribing / draining
    # ------------------------------------------------------------------
    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Register *subscriber* for every future event; returns it."""
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove *subscriber* (idempotent)."""
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            pass

    def recent(self, n: Optional[int] = None) -> List[ObsEvent]:
        """The last *n* events (default: the whole ring buffer), oldest first."""
        events = list(self._recent)
        if n is not None and n >= 0:
            events = events[-n:] if n else []
        return events

    @property
    def total_events(self) -> int:
        """Events ever published (not capped by the ring buffer)."""
        return self._seq

    def __len__(self) -> int:
        return len(self._recent)

    def __repr__(self) -> str:
        return (
            f"EventBus(capacity={self.capacity}, published={self._seq}, "
            f"kinds={len(self.counts)})"
        )
