"""Execution traces.

Every runtime in this package — the synchronous engine, the functional
experiments and the :mod:`repro.net` async runner — records what happened
into an :class:`EventTrace`.  Traces serve four purposes:

* debugging protocol implementations;
* the Theorem 2 experiments, which must demonstrate that two different
  global scenarios present *identical local views* to a particular
  fault-free node (indistinguishability is checked on traces);
* statistics for the complexity experiments (message counts per round);
* offline conformance checking: :mod:`repro.verify` replays a trace and
  independently re-derives every fault-free node's vote tree, so a trace
  must round-trip through JSONL **losslessly** (tagged value encoding, no
  ``repr`` lossiness) and must carry the wire-level story too.

Event vocabulary (:class:`EventKind`):

=================  ====================================================
protocol level     ``sent``, ``delivered``, ``dropped``, ``corrupted``,
                   ``decided``, ``defaulted`` (an expected-but-absent
                   relay path resolved to ``V_d`` — assumption (b))
wire level         ``frame-sent``, ``frame-recv``, ``coalesced`` (a
                   round's link traffic folded into one BATCH frame),
                   ``late-frame`` (arrived after its round closed),
                   ``timeout`` (a peer's end-of-round signal missed the
                   deadline), ``expected`` (the sources a node's round
                   structurally waits on)
=================  ====================================================

Synchronous executions emit only the protocol-level kinds (the lock-step
engine has no wire); the async runner emits both.  The conformance oracle
treats the wire kinds as optional corroborating evidence and the protocol
kinds as the ground truth it re-derives decisions from.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.exceptions import TraceFormatError
from repro.sim.jsonable import from_jsonable, lossy_json, raw_json
from repro.sim.messages import Message

NodeId = Hashable


class EventKind(enum.Enum):
    # Protocol-level events (every runtime).
    SENT = "sent"
    DELIVERED = "delivered"
    DROPPED = "dropped"
    CORRUPTED = "corrupted"
    DECIDED = "decided"
    #: An expected-but-absent relay path resolved to ``V_d`` by its
    #: receiver — the paper's assumption (b).  ``source`` is the receiver
    #: performing the substitution, ``payload`` the missing path.
    DEFAULTED = "defaulted"
    # Wire-level events (async runtime only).
    FRAME_SENT = "frame-sent"
    FRAME_RECV = "frame-recv"
    #: A directed link's round coalesced into one BATCH frame
    #: (``meta={"messages": n, "mark": bool}``).
    COALESCED = "coalesced"
    #: A frame from another round arrived after its round closed
    #: (``meta={"frame_round": r}``).
    LATE_FRAME = "late-frame"
    #: ``source`` (the peer) never resolved for ``destination`` before the
    #: round deadline — the timeout realization of assumption (b).
    TIMEOUT = "timeout"
    #: The sources ``source``'s round structurally waits on
    #: (``payload`` = sorted tuple).  Lets the oracle distinguish
    #: structural silence from losses.
    EXPECTED = "expected"


@dataclass(frozen=True)
class TraceEvent:
    round_no: int
    kind: EventKind
    source: NodeId
    destination: Optional[NodeId]
    payload: Any
    note: str = ""
    #: Optional structured annotations (message tag, frame kind, batch
    #: size, ...).  Keys are strings; values must be jsonable.
    meta: Optional[Dict[str, Any]] = field(default=None)

    def __init__(
        self, round_no, kind, source, destination, payload, note="", meta=None
    ) -> None:
        # The generated frozen __init__ pays one object.__setattr__ per
        # field; filling the instance dict directly builds the same object
        # in about a third of the time.  Everything else stays generated
        # (tests/sim/test_trace.py::TestConstruction pins the twin).
        fields_ = self.__dict__
        fields_["round_no"] = round_no
        fields_["kind"] = kind
        fields_["source"] = source
        fields_["destination"] = destination
        fields_["payload"] = payload
        fields_["note"] = note
        fields_["meta"] = meta


class EventTrace:
    """Ordered log of execution events with query helpers.

    *instance*, when set, stamps every recorded event's ``meta`` with
    ``{"instance": <id>}`` — the multiplexing key :mod:`repro.serve` uses
    to interleave many concurrent agreement instances into one service
    trace, and that :func:`repro.verify.demux_record` later splits on.
    Single-instance runtimes leave it ``None`` and produce traces
    byte-identical to the pre-service format.
    """

    def __init__(self, instance: Optional[Hashable] = None) -> None:
        self.instance = instance
        self._events: List[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        if self.instance is not None:
            meta = dict(event.meta) if event.meta else {}
            if "instance" not in meta:
                meta["instance"] = self.instance
                event = TraceEvent(
                    event.round_no, event.kind, event.source,
                    event.destination, event.payload, event.note, meta,
                )
        self._events.append(event)

    def record_message(
        self, round_no: int, kind: EventKind, message: Message, note: str = ""
    ) -> None:
        tag = message.tag
        self.record(
            TraceEvent(
                round_no, kind, message.source, message.destination,
                message.payload, note, {"tag": tag} if tag else None,
            )
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        return tuple(self._events)

    def filter(self, predicate: Callable[[TraceEvent], bool]) -> List[TraceEvent]:
        return [e for e in self._events if predicate(e)]

    def of_kind(self, kind: EventKind) -> List[TraceEvent]:
        return [e for e in self._events if e.kind is kind]

    def deliveries_to(self, node: NodeId) -> List[TraceEvent]:
        """Everything *node* received, in order — its local message view."""
        return self.filter(
            lambda e: e.kind is EventKind.DELIVERED and e.destination == node
        )

    def local_view(self, node: NodeId) -> Tuple[Tuple[int, NodeId, Any], ...]:
        """A hashable summary of *node*'s inbound view: (round, source, payload).

        Two executions are indistinguishable to *node* exactly when this view
        (plus the node's own input) matches — the notion Theorem 2's proof
        relies on.
        """
        return tuple(
            (e.round_no, e.source, e.payload) for e in self.deliveries_to(node)
        )

    def count(self, kind: EventKind) -> int:
        return sum(1 for e in self._events if e.kind is kind)

    def instance_ids(self) -> Tuple[Hashable, ...]:
        """Distinct instance ids stamped on events, in first-seen order.

        Events without an ``instance`` meta key (every pre-service trace)
        contribute nothing; a legacy single-agreement trace therefore
        returns ``()``.
        """
        seen: List[Hashable] = []
        for event in self._events:
            instance = (event.meta or {}).get("instance")
            if instance is not None and instance not in seen:
                seen.append(instance)
        return tuple(seen)

    def messages_per_round(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for e in self._events:
            if e.kind is EventKind.DELIVERED:
                out[e.round_no] = out.get(e.round_no, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    # Export / import (canonical JSONL, lossless round trip)
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Serialize the trace as JSON Lines (one event per line).

        Every field goes through the tagged value encoding of
        :mod:`repro.sim.jsonable`, so node ids, relay payloads, tuples and
        the ``V_d`` singleton all survive :meth:`from_jsonl` exactly.
        Values outside the encodable domain are wrapped as
        :class:`~repro.sim.jsonable.Opaque` (stable after the first
        conversion) rather than failing the export.
        """
        return "\n".join(self.lines())

    def lines(self) -> List[str]:
        """The canonical JSON line of every event, in recording order.

        A relayed payload is one object shared by all its ``sent`` and
        ``delivered`` lines, so each payload object's text is written once
        per call, keyed by ``id()``: the events hold their payloads for
        the whole call, so no id is reused while the table lives.
        """
        payload_text: Dict[int, str] = {}
        out = []
        for event in self._events:
            key = id(event.payload)
            text = payload_text.get(key)
            if text is None:
                text = payload_text[key] = lossy_json(event.payload)
            out.append(_line(event, text))
        return out

    @classmethod
    def from_jsonl(cls, text: str) -> "EventTrace":
        """Inverse of :meth:`to_jsonl`; blank lines are skipped.

        Raises :class:`~repro.exceptions.TraceFormatError` on malformed
        JSON, missing fields or unknown event kinds.
        """
        trace = cls()
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            trace.record(event_from_json(line, where=f"line {lineno}"))
        return trace

    def dump(self, path: str) -> None:
        """Write the JSONL rendering to *path*."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
            if self._events:
                handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "EventTrace":
        """Read a trace previously written by :meth:`dump`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_jsonl(handle.read())


# ----------------------------------------------------------------------
# Single-event (de)serialization
# ----------------------------------------------------------------------
def event_to_json(event: TraceEvent) -> str:
    """One canonical JSON line for *event* (sorted keys, no whitespace).

    Written straight from the event with the codec's canonical-text kernel
    (:mod:`repro.sim.jsonable`) — no dict tree.  Invariants, pinned byte
    for byte against the tree writer kept in
    ``tests/sim/reference_trace.py``:

    * the seven keys are emitted in sorted order by construction, so the
      line equals the ``sort_keys=True`` rendering of the same object;
    * ``source``, ``destination``, ``payload`` and ``meta`` follow the
      lossy rule *per field*: a field any part of which is not
      wire-encodable becomes, as a whole, the ``opaque`` tag around its
      ``repr`` (:func:`~repro.sim.jsonable.lossy_json`);
    * ``round``, ``kind`` and ``note`` are untagged JSON scalars;
    * the text is ASCII-only and holds no line break, so a trace's lines
      can be sorted, hashed and joined without re-reading them — every
      fingerprint and golden trace is a hash of exactly these lines.
    """
    return _line(event, lossy_json(event.payload))


_KIND_TEXT = {kind: raw_json(kind.value) for kind in EventKind}


def _line(event: TraceEvent, payload: str) -> str:
    """*event*'s line around its already written *payload* text."""
    return (
        f'{{"destination":{lossy_json(event.destination)},'
        f'"kind":{_KIND_TEXT[event.kind]},'
        f'"meta":{lossy_json(event.meta)},'
        f'"note":{raw_json(event.note)},'
        f'"payload":{payload},'
        f'"round":{raw_json(event.round_no)},'
        f'"source":{lossy_json(event.source)}}}'
    )


def event_from_json(line: str, where: str = "") -> TraceEvent:
    """Inverse of :func:`event_to_json`."""
    label = f" ({where})" if where else ""
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"malformed trace line{label}: {exc}") from exc
    if not isinstance(raw, dict):
        raise TraceFormatError(f"trace line{label} is not a JSON object")
    try:
        kind = EventKind(raw["kind"])
        return TraceEvent(
            round_no=int(raw["round"]),
            kind=kind,
            source=from_jsonable(raw["source"]),
            destination=from_jsonable(raw["destination"]),
            payload=from_jsonable(raw["payload"]),
            note=raw.get("note", ""),
            meta=from_jsonable(raw.get("meta")),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise TraceFormatError(f"malformed trace event{label}: {exc}") from exc
