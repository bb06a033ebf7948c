"""Message objects exchanged through the synchronous simulator.

The paper's system model makes three assumptions about messages (Section 4):

(a) every message sent is delivered correctly,
(b) the absence of a message can be detected, and
(c) the source of a received message can be identified.

The simulator enforces (a) and (c) structurally — the engine delivers every
message it is handed and stamps the true source; Byzantine nodes can corrupt
*payloads* but cannot forge another node's identity.  Assumption (b) is
realized by receivers enumerating the messages they expect each round and
substituting ``V_d`` for the missing ones; fault injection (omission, the
Section 6.1 timeout model) works by removing messages in flight, which the
receiver then observes as absence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

NodeId = Hashable


@dataclass(frozen=True)
class Message:
    """One point-to-point message.

    Attributes
    ----------
    source:
        True originating node (unforgeable; set by the engine).
    destination:
        Receiving node.
    payload:
        Protocol-specific content.  Agreement protocols use
        :class:`RelayPayload`.
    round_sent:
        Round in which the message was handed to the engine; it is
        delivered at the start of ``round_sent + 1``.
    tag:
        Protocol/instance label so independent protocol instances can share
        one engine without crosstalk.
    """

    source: NodeId
    destination: NodeId
    payload: Any
    round_sent: int = 0
    tag: str = ""

    def __init__(self, source, destination, payload, round_sent=0, tag="") -> None:
        # Filled directly, like TraceEvent: the generated frozen __init__
        # pays one object.__setattr__ per field, and every decoded message
        # is built here (tests/sim/test_messages.py::TestConstruction).
        fields_ = self.__dict__
        fields_["source"] = source
        fields_["destination"] = destination
        fields_["payload"] = payload
        fields_["round_sent"] = round_sent
        fields_["tag"] = tag

    def with_payload(self, payload: Any) -> "Message":
        """Copy of this message with a different payload (adversary use)."""
        return replace(self, payload=payload)


@dataclass(frozen=True)
class RelayPayload:
    """Payload used by the EIG-based agreement protocols.

    ``path`` is the full relay path *including* the relayer sending this
    message (so a direct send from sender ``s`` carries ``path == (s,)``);
    ``value`` is the value being relayed.  An empty path is refused with
    :class:`ValueError`.

    ``__init__`` and ``__repr__`` are written out: one payload is built per
    decoded message and its ``repr`` is :func:`delivery_order`'s sort key,
    so both run once per message on the wire.  They build and render
    exactly what the generated ones would; equality, hashing and
    frozenness stay generated.
    """

    path: Tuple[NodeId, ...]
    value: Any

    def __init__(self, path, value) -> None:
        if not path:
            raise ValueError("RelayPayload.path must be non-empty")
        fields_ = self.__dict__
        fields_["path"] = path
        fields_["value"] = value

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(path={self.path!r}, value={self.value!r})"


def delivery_order(messages: Iterable[Message]) -> List[Message]:
    """*messages* in the one deterministic inbox order every runtime uses.

    Sorted by ``(str(destination), str(source), str(payload))``, stable for
    equal keys — the order every pinned trace and fingerprint was recorded
    in.  ``str(payload)`` is a dataclass ``repr``, by far the dearest part
    of the key, and a relayed payload is one object shared by all its
    destinations, so it is rendered once per distinct payload *object*
    (the messages keep their payloads alive, so ``id`` cannot be reused
    meanwhile); equal-but-distinct payloads render equal and sort the same.
    """
    rendered: Dict[int, str] = {}
    keyed = []
    for index, message in enumerate(messages):
        payload = message.payload
        text = rendered.get(id(payload))
        if text is None:
            text = rendered[id(payload)] = str(payload)
        # The unique index keeps equal keys in arrival order and keeps the
        # sort from ever comparing two messages.
        keyed.append(
            (str(message.destination), str(message.source), text, index, message)
        )
    keyed.sort()
    return [entry[4] for entry in keyed]


@dataclass(frozen=True)
class ClockReadingPayload:
    """Payload used by the clock-synchronization protocols."""

    reading: float
    epoch: int = 0


@dataclass
class Envelope:
    """A message in transit, with routing metadata used by the relay layer.

    The disjoint-path routing substrate (:mod:`repro.sim.routing`) wraps
    logical messages in envelopes that carry the remaining hop list.
    """

    message: Message
    route: Tuple[NodeId, ...] = field(default_factory=tuple)
    hops_taken: int = 0

    def next_hop(self) -> Optional[NodeId]:
        if self.hops_taken < len(self.route):
            return self.route[self.hops_taken]
        return None

    def advance(self) -> "Envelope":
        return Envelope(
            message=self.message, route=self.route, hops_taken=self.hops_taken + 1
        )
