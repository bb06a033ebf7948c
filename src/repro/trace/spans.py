"""Deterministic causal spans for the agreement stack.

A :class:`Span` is one timed region of a run — a round, a collection
window, a frame send, a link-heal retry burst, an instance's
admission-to-verdict lifetime — linked to its cause by ``parent_id``.
The whole model is dependency-free and built around one invariant the
rest of the repo already lives by: **observing a run never changes it**,
and a same-seed run must tell the same causal story twice.

Two design rules make that hold:

* **Ids come from logical coordinates, never the clock.**  A span id is
  a SHA-256 digest of ``(seed, name, instance, round, directed link,
  seq, ordinal)`` — the ordinal being a per-coordinate counter, so the
  k-th retry burst on one link in one round names itself identically in
  every same-seed run, however the event loop interleaved it with other
  links.  Wall-clock values appear only in ``start``/``end``/event
  timestamps, which are for *rendering* (Perfetto timelines, summaries)
  and never feed ids or fingerprints.
* **Recording is synchronous and draw-free.**  ``begin``/``end``/
  ``event`` are plain list appends: no awaits (nothing reordered in the
  event loop), no RNG (chaos draw sequences are untouched), no
  exceptions on the protocol path.  The determinism suite in
  ``tests/trace`` pins decisions, :meth:`NetMetrics.counters` and chaos
  fingerprints identical with tracing on or off.

Timestamps are read from the running event loop's clock
(:meth:`Tracer.now`), so a run driven by the schedule explorer's
:class:`~repro.explore.clock.VirtualClockLoop` produces spans on
*virtual* time — an explored schedule becomes a renderable timeline —
while a real run gets monotonic time.

Context propagation crosses the wire through the frame envelope's
optional trace-context field (:attr:`~repro.net.codec.Frame.trace`):
the sender stamps its send-span id onto the frame, and every layer that
touches the frame downstream — chaos injection, demux, supervision
healing — parents its own spans and events to that id, so one causal
chain runs from a round opening to the far side's demux.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional

__all__ = ["Span", "SpanEvent", "Tracer", "span_key"]

#: Span categories, one per instrumented layer.
RUNNER = "runner"
SUPERVISION = "supervision"
CHAOS = "chaos"
MUX = "mux"
GATEWAY = "gateway"


@dataclass
class SpanEvent:
    """One instantaneous annotation inside a span (retry, injection...)."""

    name: str
    ts: float
    attrs: Dict[str, object] = field(default_factory=dict)


@dataclass
class Span:
    """One timed, causally-linked region of a run."""

    span_id: str
    parent_id: Optional[str]
    name: str
    category: str
    start: float
    end: Optional[float] = None
    instance: Optional[str] = None
    round_no: Optional[int] = None
    source: Optional[str] = None
    destination: Optional[str] = None
    seq: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    events: List[SpanEvent] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while the span is open)."""
        if self.end is None:
            return 0.0
        return max(0.0, self.end - self.start)

    @property
    def link(self) -> str:
        """Human-readable directed-link label, ``"src->dst"``."""
        return f"{self.source}->{self.destination}"


def span_key(
    name: str,
    instance: Optional[str],
    round_no: Optional[int],
    source: Optional[str],
    destination: Optional[str],
    seq: Optional[int],
) -> str:
    """The logical-coordinate key ordinals and ids are derived from."""
    return "|".join(
        "-" if part is None else str(part)
        for part in (name, instance, round_no, source, destination, seq)
    )


class Tracer:
    """Collects spans for one run; ids are a pure function of the seed.

    *clock* (optional) overrides the timestamp source; by default the running event loop's
    ``time()`` is used (virtual under the schedule explorer, monotonic
    otherwise), falling back to :func:`time.monotonic` off-loop.
    """

    def __init__(
        self,
        seed: int = 0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.seed = int(seed)
        self.trace_id = hashlib.sha256(
            f"repro.trace|{self.seed}".encode("utf-8")
        ).hexdigest()[:32]
        self._clock = clock
        self.spans: List[Span] = []
        self._by_id: Dict[str, Span] = {}
        self._ordinals: Dict[str, int] = {}
        #: Scope registry (gateway seam): instance id -> its span id, so a
        #: runner spawned for that instance can parent its round spans.
        self._scopes: Dict[Hashable, str] = {}
        #: Events whose named parent span was unknown; folded into
        #: synthesized instant spans so nothing is silently lost.
        self.orphan_events = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def now(self) -> float:
        """The run's clock: loop time (virtual under explore) or monotonic."""
        if self._clock is not None:
            return self._clock()
        try:
            return asyncio.get_running_loop().time()
        except RuntimeError:
            return time.monotonic()

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def _derive_id(self, key: str) -> str:
        ordinal = self._ordinals.get(key, 0)
        self._ordinals[key] = ordinal + 1
        return hashlib.sha256(
            f"{self.seed}|{key}|{ordinal}".encode("utf-8")
        ).hexdigest()[:16]

    def begin(
        self,
        name: str,
        category: str,
        parent: Optional[str] = None,
        instance: Optional[Hashable] = None,
        round_no: Optional[int] = None,
        source: Optional[Hashable] = None,
        destination: Optional[Hashable] = None,
        seq: Optional[int] = None,
        **attrs: object,
    ) -> Span:
        """Open a span; its id depends only on seed + logical coordinates."""
        inst = None if instance is None else str(instance)
        src = None if source is None else str(source)
        dst = None if destination is None else str(destination)
        key = span_key(name, inst, round_no, src, dst, seq)
        span = Span(
            span_id=self._derive_id(key),
            parent_id=parent,
            name=name,
            category=category,
            start=self.now(),
            instance=inst,
            round_no=round_no,
            source=src,
            destination=dst,
            seq=seq,
            attrs=dict(attrs),
        )
        self.spans.append(span)
        self._by_id[span.span_id] = span
        return span

    def end(self, span: Span, **attrs: object) -> Span:
        """Close a span (idempotent)."""
        if span.end is None:
            span.end = self.now()
        if attrs:
            span.attrs.update(attrs)
        return span

    def instant(
        self,
        name: str,
        category: str,
        parent: Optional[str] = None,
        **coords_and_attrs: object,
    ) -> Span:
        """A zero-duration span (demux hops, fast-fails, scheduled faults)."""
        span = self.begin(name, category, parent=parent, **coords_and_attrs)
        return self.end(span)

    def event(self, span: Span, name: str, **attrs: object) -> SpanEvent:
        """Annotate an open (or closed) span with an instantaneous event."""
        ev = SpanEvent(name=name, ts=self.now(), attrs=dict(attrs))
        span.events.append(ev)
        return ev

    def event_on(
        self, span_id: Optional[str], name: str, **attrs: object
    ) -> SpanEvent:
        """Annotate the span named by *span_id* (wire trace-context).

        A missing or unknown id — tracing enabled at a lower layer than
        the sender, say — synthesizes an instant span instead of losing
        the record; the miss is counted in :attr:`orphan_events`.
        """
        span = self._by_id.get(span_id) if span_id else None
        if span is None:
            self.orphan_events += 1
            span = self.instant(name, CHAOS)
        return self.event(span, name, **attrs)

    # ------------------------------------------------------------------
    # Scope registry (admission -> verdict parenting across layers)
    # ------------------------------------------------------------------
    def set_scope(self, scope: Hashable, span_id: str) -> None:
        self._scopes[scope] = span_id

    def scope_parent(self, scope: Hashable) -> Optional[str]:
        return self._scopes.get(scope)

    def scope_span(self, scope: Hashable) -> Optional[Span]:
        span_id = self._scopes.get(scope)
        return self._by_id.get(span_id) if span_id else None

    def close_open(self, **attrs: object) -> int:
        """Force-close any spans still open; returns how many were.

        An export-time tidy for the CLI — never called on the protocol
        path.  A run cancelled from outside (a caller giving up on
        ``run()``, a service stopped mid-instance) leaves its
        round/collect spans open; closing them here (marked
        ``abandoned=True``) keeps every ``parent_id`` resolvable in the
        exported trace.
        """
        closed = 0
        for span in self.spans:
            if span.end is None:
                self.end(span, abandoned=True, **attrs)
                closed += 1
        return closed

    # ------------------------------------------------------------------
    # Introspection (export + Prometheus feeds)
    # ------------------------------------------------------------------
    def get(self, span_id: str) -> Optional[Span]:
        return self._by_id.get(span_id)

    @property
    def finished(self) -> List[Span]:
        return [s for s in self.spans if s.end is not None]

    def durations_by_category(self) -> Dict[str, List[float]]:
        """Finished-span durations per category (Prometheus histograms)."""
        out: Dict[str, List[float]] = {}
        for span in self.spans:
            if span.end is None:
                continue
            out.setdefault(span.category, []).append(span.duration)
        return out

    def span_ids(self) -> List[str]:
        """Every span id, sorted — the cross-run determinism handle."""
        return sorted(self._by_id)

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        open_count = sum(1 for s in self.spans if s.end is None)
        return (
            f"Tracer(seed={self.seed}, spans={len(self.spans)}, "
            f"open={open_count})"
        )
