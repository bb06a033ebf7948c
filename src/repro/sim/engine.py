"""Deterministic synchronous round engine.

Executes a set of :class:`~repro.sim.node.Process` objects in lock-step
rounds over a :class:`~repro.sim.network.Topology`:

1. at the start of round ``r`` every process receives the messages addressed
   to it that were sent in round ``r - 1`` (round 1 inboxes are empty);
2. processes step in a fixed deterministic order and emit outgoing messages;
3. each outgoing message passes through the registered fault injectors
   (Byzantine corruption, omissions, ...) and is queued for delivery if the
   topology contains the link.

Model guarantees enforced structurally (Section 4 assumptions):

* (a) messages that survive injection are always delivered, uncorrupted by
  the network itself;
* (c) sources are unforgeable — an injector may alter or drop a message but
  the engine rejects any attempt to emit a message whose ``source`` differs
  from the original sender.

Assumption (b) — detectable absence — is the receiving protocol's job: it
knows which messages a round should bring and substitutes ``V_d`` for the
missing ones.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence

from repro.exceptions import SimulationError
from repro.sim.messages import Message, delivery_order
from repro.sim.network import Topology
from repro.sim.node import Process
from repro.sim.trace import EventKind, EventTrace

NodeId = Hashable


class FaultInjector:
    """Hook that may drop, alter or multiply messages in flight.

    Subclasses override :meth:`intercept`.  Returning ``[]`` drops the
    message; returning the message unchanged passes it through; returning a
    modified copy corrupts it.  All returned messages must keep the original
    ``source`` (assumption (c)).
    """

    def intercept(self, round_no: int, message: Message) -> List[Message]:
        return [message]


class SynchronousEngine:
    """Round-based executor for a set of processes over a topology."""

    def __init__(
        self,
        topology: Topology,
        processes: Sequence[Process],
        injectors: Optional[Iterable[FaultInjector]] = None,
        record_trace: bool = True,
    ) -> None:
        self.topology = topology
        self.processes: Dict[NodeId, Process] = {}
        for process in processes:
            if process.node_id in self.processes:
                raise SimulationError(
                    f"duplicate process for node {process.node_id!r}"
                )
            if process.node_id not in topology.graph:
                raise SimulationError(
                    f"process node {process.node_id!r} not in topology"
                )
            self.processes[process.node_id] = process
        self.injectors: List[FaultInjector] = list(injectors or [])
        self.trace: Optional[EventTrace] = EventTrace() if record_trace else None
        # A topology is immutable, so its links are read once, not asked
        # of the graph per message.
        self._links = topology.links
        self._in_flight: List[Message] = []
        self.current_round = 0
        #: Messages the processes emitted so far, counted before injectors
        #: drop, alter or multiply them (one per ``sent`` trace event).
        self.emitted = 0
        self._order: List[NodeId] = sorted(
            self.processes, key=lambda n: str(n)
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, max_rounds: int) -> int:
        """Run up to *max_rounds* rounds; returns the number executed.

        Stops early once every process has decided **and** no messages are
        in flight.
        """
        if max_rounds < 0:
            raise SimulationError(f"max_rounds must be >= 0, got {max_rounds}")
        executed = 0
        for _ in range(max_rounds):
            if self.all_decided() and not self._in_flight:
                break
            self.step_round()
            executed += 1
        return executed

    def step_round(self) -> None:
        """Execute exactly one synchronous round."""
        self.current_round += 1
        inboxes: Dict[NodeId, List[Message]] = {n: [] for n in self.processes}
        for message in delivery_order(self._in_flight):
            inboxes[message.destination].append(message)
            if self.trace is not None:
                self.trace.record_message(
                    self.current_round, EventKind.DELIVERED, message
                )
        self._in_flight = []

        outgoing: List[Message] = []
        for node_id in self._order:
            process = self.processes[node_id]
            sent = process.step(self.current_round, inboxes[node_id])
            for message in sent:
                if message.source != node_id:
                    raise SimulationError(
                        f"process {node_id!r} attempted to forge source "
                        f"{message.source!r}"
                    )
                outgoing.append(message)
        self.emitted += len(outgoing)

        if self.injectors or self.trace is not None:
            for message in outgoing:
                self._dispatch(message)
        else:
            # Nobody can alter a message and nobody records one: every
            # message is its own sole survivor.
            for message in outgoing:
                self._enqueue(message)

    def _dispatch(self, original: Message) -> None:
        if self.trace is not None:
            self.trace.record_message(
                self.current_round, EventKind.SENT, original
            )
        survivors = [original]
        for injector in self.injectors:
            next_wave: List[Message] = []
            for message in survivors:
                replacements = injector.intercept(self.current_round, message)
                for replacement in replacements:
                    if replacement is message:
                        continue  # passed through untouched: nothing to check
                    if replacement.source != original.source:
                        raise SimulationError(
                            f"injector {type(injector).__name__} attempted to "
                            f"forge source {replacement.source!r} on a message "
                            f"from {original.source!r}"
                        )
                    if replacement.payload != message.payload and self.trace is not None:
                        self.trace.record_message(
                            self.current_round,
                            EventKind.CORRUPTED,
                            replacement,
                            note=f"by {type(injector).__name__}",
                        )
                next_wave.extend(replacements)
            survivors = next_wave
        if not survivors and self.trace is not None:
            self.trace.record_message(
                self.current_round, EventKind.DROPPED, original
            )
        for message in survivors:
            self._enqueue(message)

    def _enqueue(self, message: Message) -> None:
        if message.destination not in self.processes:
            raise SimulationError(
                f"message to unknown node {message.destination!r}"
            )
        if message.destination == message.source:
            raise SimulationError(
                f"node {message.source!r} attempted to message itself"
            )
        if message.destination not in self._links[message.source]:
            # No physical link: the message silently never arrives.  The
            # relay layer is responsible for multi-hop routing.
            if self.trace is not None:
                self.trace.record_message(
                    self.current_round,
                    EventKind.DROPPED,
                    message,
                    note="no link",
                )
            return
        self._in_flight.append(message)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def all_decided(self) -> bool:
        return all(p.decided for p in self.processes.values())

    def decisions(self) -> Dict[NodeId, object]:
        return {
            node_id: process.decision
            for node_id, process in self.processes.items()
            if process.decided
        }
