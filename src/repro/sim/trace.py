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
from repro.sim.jsonable import from_jsonable, leaf_json, lossy_json, raw_json
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
    #: size, ...).  Keys are strings; values must be jsonable.  Read-only:
    #: the events of one trace share one dict per distinct tag and frame
    #: shape (:meth:`EventTrace.record_message`,
    #: :meth:`~repro.net.runner.AsyncRoundRunner._frame_meta`).
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
        #: ``{"tag": tag}`` by tag: one meta per distinct tag in this trace.
        self._tag_metas: Dict[str, Dict[str, str]] = {}

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
        """Record *message* as a *kind* event, its tag as the meta.

        Every event of one exact-``str`` tag shares one ``{"tag": tag}``
        dict, kept per trace (a service names its tags ``byz:<id>``, so a
        process-wide table would grow without bound); a tag of any other
        type gets a fresh dict.
        """
        tag = message.tag
        if not tag:
            meta = None
        elif tag.__class__ is str:
            meta = self._tag_metas.get(tag)
            if meta is None:
                meta = self._tag_metas[tag] = {"tag": tag}
        else:
            meta = {"tag": tag}
        self.record(
            TraceEvent(
                round_no, kind, message.source, message.destination,
                message.payload, note, meta,
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
        ``delivered`` lines, and a meta one object shared by every line of
        its tag or frame shape, so each payload and meta object's text is
        written once per call, keyed by ``id()``: the events hold both for
        the whole call, so no id is reused while the table lives.  One
        table serves both fields — both are written by :func:`lossy_json`,
        so one object has one text whichever field it fills.
        """
        texts: Dict[int, str] = {}
        out = []
        for event in self._events:
            payload, meta = event.payload, event.meta
            payload_text = texts.get(id(payload))
            if payload_text is None:
                payload_text = texts[id(payload)] = lossy_json(payload)
            meta_text = texts.get(id(meta))
            if meta_text is None:
                meta_text = texts[id(meta)] = lossy_json(meta)
            out.append(_line(event, payload_text, meta_text))
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
    return _line(event, lossy_json(event.payload), lossy_json(event.meta))


#: Keyed by the member's value: hashing the member itself calls the
#: Python-level ``Enum.__hash__``, about 5 % of a line's cost.
_KIND_TEXT = {kind._value_: raw_json(kind.value) for kind in EventKind}


def _line(event: TraceEvent, payload: str, meta: str) -> str:
    """*event*'s line around its already written *payload* and *meta* text.

    The other fields are almost always exact ``str``/``int`` leaves (node
    ids, an empty note, the round), written from the leaf memo.
    """
    return (
        f'{{"destination":{leaf_json(event.destination, lossy_json)},'
        f'"kind":{_KIND_TEXT[event.kind._value_]},'
        f'"meta":{meta},'
        f'"note":{leaf_json(event.note, raw_json)},'
        f'"payload":{payload},'
        f'"round":{leaf_json(event.round_no, raw_json)},'
        f'"source":{leaf_json(event.source, lossy_json)}}}'
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
