"""Behaviour interface for faulty nodes.

Every agreement algorithm in this package (functional or message-passing) is
executed against a set of *behaviours*: fault-free nodes follow the protocol,
and each faulty node is driven by a :class:`Behavior` object that decides, for
every message the protocol would have it send, what (if anything) actually
goes out.

The interface deliberately gives the adversary maximal power consistent with
the paper's model:

* a faulty node sees the full relay *path* (the protocol context), the
  destination, and the value an honest node would have sent;
* it may send different values to different destinations ("two-faced"
  behaviour), lie consistently, stay silent, or lie only along chosen relay
  chains (used to reconstruct the Figure 2 impossibility scenarios);
* per assumption (b) of Section 4, the *absence* of a message is detected by
  the receiver, which substitutes the default value ``V_d`` — so a silent
  node is modelled as one that sends :data:`DEFAULT`.

Behaviours are deterministic given their own state, which keeps simulations
reproducible; randomized behaviours take an explicit ``random.Random``.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, Hashable, Iterable, Optional, Sequence, Tuple

from repro.core.values import DEFAULT, Value

#: A relay path: the sequence of nodes that have acted as (sub-)senders so
#: far, outermost first.  The top-level send has an empty path.
Path = Tuple[Hashable, ...]

NodeId = Hashable


class Behavior(ABC):
    """Decides what a faulty node sends in place of each honest message."""

    @abstractmethod
    def send(
        self, path: Path, source: NodeId, destination: NodeId, honest_value: Value
    ) -> Value:
        """Return the value actually transmitted.

        Parameters
        ----------
        path:
            Relay context: the senders of the enclosing (sub-)protocols.
        source:
            The faulty node doing the sending (always the node this behaviour
            is attached to).
        destination:
            The receiver of this message.
        honest_value:
            What the protocol would have the node send.  A Byzantine node is
            free to ignore it.
        """


class HonestBehavior(Behavior):
    """Follows the protocol exactly.  Attached implicitly to fault-free nodes."""

    def send(self, path: Path, source: NodeId, destination: NodeId, honest_value: Value) -> Value:
        return honest_value


class SilentBehavior(Behavior):
    """Crash/mute fault: never sends.

    Receivers detect the absence (model assumption (b)) and substitute the
    default value, so this behaviour simply transmits :data:`DEFAULT`.
    """

    def send(self, path: Path, source: NodeId, destination: NodeId, honest_value: Value) -> Value:
        return DEFAULT


class ConstantLiar(Behavior):
    """Always sends the same fixed wrong value to everyone."""

    def __init__(self, value: Value) -> None:
        self.value = value

    def send(self, path: Path, source: NodeId, destination: NodeId, honest_value: Value) -> Value:
        return self.value


class TwoFacedBehavior(Behavior):
    """Sends a per-destination value; falls back to honest for others.

    The canonical Byzantine attack: tell A one thing and B another.
    """

    def __init__(self, faces: Dict[NodeId, Value]) -> None:
        self.faces = dict(faces)

    def send(self, path: Path, source: NodeId, destination: NodeId, honest_value: Value) -> Value:
        return self.faces.get(destination, honest_value)


class RandomLiar(Behavior):
    """Sends a value drawn from *domain* independently for every message.

    Used by the Monte-Carlo harness.  Supply a seeded ``random.Random`` for
    reproducibility.  With ``include_honest=True`` the honest value is one of
    the choices (a weaker but sneakier adversary).
    """

    def __init__(
        self,
        domain: Sequence[Value],
        rng: random.Random,
        include_honest: bool = True,
        include_silence: bool = True,
    ) -> None:
        if not domain:
            raise ValueError("RandomLiar needs a non-empty value domain")
        self.domain = list(domain)
        self.rng = rng
        self.include_honest = include_honest
        self.include_silence = include_silence

    def send(self, path: Path, source: NodeId, destination: NodeId, honest_value: Value) -> Value:
        choices = list(self.domain)
        if self.include_honest:
            choices.append(honest_value)
        if self.include_silence:
            choices.append(DEFAULT)
        return self.rng.choice(choices)


class EchoAsBehavior(Behavior):
    """Pretends it received a fixed value and relays protocol-consistently.

    Used in Figure 2 scenario (a): faulty node A "pretends to have received
    beta from sender S" — i.e. it behaves like an honest node whose inbound
    value had been *pretend_value*.
    """

    def __init__(self, pretend_value: Value) -> None:
        self.pretend_value = pretend_value

    def send(self, path: Path, source: NodeId, destination: NodeId, honest_value: Value) -> Value:
        return self.pretend_value


class LieAboutSender(Behavior):
    """Claims a fixed value *only* when relaying its direct-from-sender value.

    The node behaves honestly in every other context (it relays other
    nodes' claims faithfully).  This is the precise behaviour the Theorem 2
    scenarios need: "node A pretends to have received alpha from sender S",
    with everything else protocol-conformant so that honest nodes cannot
    tell the scenario apart from one where A truly received alpha.

    The direct-value relay context is exactly ``path == (top_sender,)``:
    the sub-protocol (or echo round) in which receivers forward what the
    top-level sender sent them.
    """

    def __init__(self, claimed: Value, top_sender: NodeId) -> None:
        self.claimed = claimed
        self.top_sender = top_sender

    def send(self, path: Path, source: NodeId, destination: NodeId, honest_value: Value) -> Value:
        if path == (self.top_sender,):
            return self.claimed
        return honest_value


def _is_sender_chain(path: Path, top_sender: NodeId, extras: frozenset) -> bool:
    """True for contexts of the form ``(S, e1, .., ek)`` with all ``e_i`` in
    *extras* (k >= 0) — the contexts in which a value still only reflects
    what the sender group claims the sender's value was."""
    if not path or path[0] != top_sender:
        return False
    return all(hop in extras for hop in path[1:])


class ChainLiar(Behavior):
    """Claims a fixed value in every *sender-group chain* context.

    The generalized Theorem 2 scenarios (a) and (c) need faulty nodes that
    pretend the whole sender group told them ``claimed``: they lie when
    relaying their own direct-from-sender value (context ``(S,)``) *and*
    when echoing a sender-group extra's relay of it (contexts
    ``(S, e1, ..., ek)`` with every ``e_i`` a sender-group extra).  In all
    other contexts they are honest — which is what makes the scenario
    indistinguishable, to honest nodes, from one where the sender group
    really said ``claimed``.

    With no extras (``m = 1``) this degenerates to
    :class:`LieAboutSender`.
    """

    def __init__(self, claimed: Value, top_sender: NodeId, extras: Iterable[NodeId] = ()) -> None:
        self.claimed = claimed
        self.top_sender = top_sender
        self.extras = frozenset(extras)

    def send(self, path: Path, source: NodeId, destination: NodeId, honest_value: Value) -> Value:
        if _is_sender_chain(path, self.top_sender, self.extras):
            return self.claimed
        return honest_value


class ChainTwoFaced(Behavior):
    """Per-destination claims in every sender-group chain context.

    Used by the faulty sender-group *extras* in the Theorem 2 scenario (b):
    whenever they relay information that is still purely "what the sender
    group says the sender's value was", they tell one destination group
    ``alpha`` and the other ``beta``; everything else is relayed honestly.
    """

    def __init__(
        self,
        faces: Dict[NodeId, Value],
        top_sender: NodeId,
        extras: Iterable[NodeId] = (),
    ) -> None:
        self.faces = dict(faces)
        self.top_sender = top_sender
        self.extras = frozenset(extras)

    def send(self, path: Path, source: NodeId, destination: NodeId, honest_value: Value) -> Value:
        if (
            _is_sender_chain(path, self.top_sender, self.extras)
            and destination in self.faces
        ):
            return self.faces[destination]
        return honest_value


BehaviorMap = Dict[NodeId, Behavior]


def behavior_for(behaviors: Optional[BehaviorMap], node: NodeId) -> Behavior:
    """The behaviour driving *node*: its entry in *behaviors*, else honest."""
    if behaviors and node in behaviors:
        return behaviors[node]
    return _HONEST


_HONEST = HonestBehavior()
