"""Fault injection for both runtimes.

Every injector here is a :class:`~repro.sim.engine.FaultInjector`, run by
:meth:`~repro.sim.engine.SynchronousEngine.emit` — the synchronous engine
and the asyncio runner take the same objects in the same order.  Three
families of faults appear in the paper:

* **Byzantine nodes** (the main model): arbitrary behaviour.  Realized by
  :class:`ByzantineRelayInjector`, which rewrites the payloads of messages
  *originating at faulty nodes* using the same
  :class:`~repro.core.behavior.Behavior` objects the functional algorithm
  uses — so one scenario script drives both implementations.
* **Omissions / crashes**: a faulty node's messages simply vanish
  (:class:`OmissionInjector` with a source set, or a silent behaviour);
  :class:`CrashInjector` also withholds the node's end-of-round signal, so
  on a real wire its receivers learn of the silence from the deadline.
* **Spurious timeouts** (Section 6.1): when more than ``m`` nodes are
  faulty, clock synchronization may degrade and a fault-free node may
  wrongly declare a fault-free node's message absent.
  :class:`SpuriousTimeoutInjector` drops fault-free-to-fault-free messages
  with a given probability, which the receiving protocol observes as
  absence (and substitutes ``V_d``) — exactly the paper's relaxed
  assumption.
"""

from __future__ import annotations

import random
from typing import AbstractSet, Callable, Hashable, Iterable, List, Optional

from repro.core.behavior import BehaviorMap
from repro.sim.engine import FaultInjector
from repro.sim.messages import Message, RelayPayload

NodeId = Hashable


class ByzantineRelayInjector(FaultInjector):
    """Drives faulty nodes' relay messages through behaviour objects.

    Only messages whose payload is a :class:`RelayPayload` and whose source
    has a behaviour attached are touched.  The behaviour receives the relay
    *context path* — the path excluding the faulty relayer itself, matching
    the `path` argument the functional execution passes — plus destination
    and the honest value, and returns the value actually sent.

    Returning :data:`~repro.core.values.DEFAULT` models silence (receivers
    treat the default exactly as a detected absence).
    """

    def __init__(self, behaviors: BehaviorMap) -> None:
        self.behaviors = dict(behaviors)

    def intercept(self, round_no: int, message: Message) -> List[Message]:
        behavior = self.behaviors.get(message.source)
        if behavior is None or not isinstance(message.payload, RelayPayload):
            return [message]
        payload = message.payload
        # payload.path includes the relayer as its last element; the
        # behaviour's context path is everything before it.
        context_path = payload.path[:-1]
        forged_value = behavior.send(
            context_path, message.source, message.destination, payload.value
        )
        if forged_value == payload.value:
            return [message]
        return [message.with_payload(RelayPayload(payload.path, forged_value))]


class OmissionInjector(FaultInjector):
    """Drops every message matching a predicate (deterministic omissions)."""

    def __init__(self, should_drop: Callable[[int, Message], bool]) -> None:
        self.should_drop = should_drop
        self.dropped = 0

    def intercept(self, round_no: int, message: Message) -> List[Message]:
        if self.should_drop(round_no, message):
            self.dropped += 1
            return []
        return [message]

    @classmethod
    def from_sources(cls, sources: AbstractSet[NodeId]) -> "OmissionInjector":
        """Drop everything sent by the given nodes (crash faults)."""
        return cls(lambda _round, msg: msg.source in sources)

    @classmethod
    def for_links(cls, links: AbstractSet[tuple]) -> "OmissionInjector":
        """Drop messages on specific (source, destination) links."""
        return cls(lambda _round, msg: (msg.source, msg.destination) in links)


class CrashInjector(OmissionInjector):
    """Crash fault: a node that stops talking entirely.

    Drops every message originating at *nodes*, exactly like
    :meth:`OmissionInjector.from_sources`, *and* mutes their end-of-round
    markers.  The lock-step engine has no markers, so there the two are the
    same fault; on the wire an omission still lets rounds close fast, while
    a crash makes receivers wait out the full round deadline before
    substituting ``V_d`` — the timeout path of assumption (b), for real.
    """

    def __init__(self, nodes: Iterable[NodeId]) -> None:
        crashed = self.nodes = frozenset(nodes)
        super().__init__(lambda _round, msg: msg.source in crashed)

    def mutes_marker(self, round_no: int, node: NodeId) -> bool:
        return node in self.nodes


class SpuriousTimeoutInjector(FaultInjector):
    """Section 6.1 model: fault-free messages occasionally time out.

    Each message between two *fault-free* nodes is independently dropped
    with probability *p* (seeded RNG for reproducibility).  Messages from
    faulty nodes are left to the Byzantine injector.  The paper proves the
    algorithm still achieves degradable agreement under this relaxation when
    ``m < f <= u``; the integration tests exercise exactly that claim.
    """

    def __init__(
        self,
        probability: float,
        faulty: AbstractSet[NodeId],
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self.probability = probability
        self.faulty = frozenset(faulty)
        self.rng = rng or random.Random(0)
        self.dropped = 0

    def intercept(self, round_no: int, message: Message) -> List[Message]:
        if message.source in self.faulty or message.destination in self.faulty:
            return [message]
        if self.rng.random() < self.probability:
            self.dropped += 1
            return []
        return [message]


class MessageCorruptor(FaultInjector):
    """Applies an arbitrary payload transformation to matching messages.

    A low-level escape hatch for tests that need faults not expressible as
    node behaviours (e.g. corrupting a single specific message).
    """

    def __init__(
        self,
        matches: Callable[[int, Message], bool],
        transform: Callable[[Message], Message],
    ) -> None:
        self.matches = matches
        self.transform = transform

    def intercept(self, round_no: int, message: Message) -> List[Message]:
        if self.matches(round_no, message):
            return [self.transform(message)]
        return [message]


def behavior_injectors(behaviors: Optional[BehaviorMap]) -> List[FaultInjector]:
    """Standard injector stack for a behaviour-driven Byzantine fault set
    (empty when no node has a behaviour: nothing to intercept)."""
    return [ByzantineRelayInjector(behaviors)] if behaviors else []
