"""Deterministic synchronous round engine — and the one protocol round.

Executes a set of :class:`~repro.sim.node.Process` objects in lock-step
rounds over a :class:`~repro.sim.network.Topology`:

1. at the start of round ``r`` every process receives the messages addressed
   to it that were sent in round ``r - 1`` (round 1 inboxes are empty);
2. processes step in a fixed deterministic order and emit outgoing messages;
3. each outgoing message passes through the registered fault injectors
   (Byzantine corruption, omissions, ...) and is queued for delivery if the
   topology contains the link.

Steps 2 and 3 are :meth:`SynchronousEngine.emit`, the protocol half of a
round.  The asyncio runtime (:class:`repro.net.AsyncRoundRunner`) owns an
engine and calls the same method with the inboxes it collected off the
wire, so stepping order, the checks below, the injector chain and the
protocol-level trace lines are defined here once; the runtimes differ only
in how a round's survivors travel and how assumption (b) closes the round
(lock-step barrier here, a deadline there).

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

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import SimulationError
from repro.sim.messages import Message, delivery_order
from repro.sim.network import Topology
from repro.sim.node import Process
from repro.sim.trace import EventKind, EventTrace

NodeId = Hashable


class FaultInjector:
    """Hook that may drop, alter or multiply messages in flight.

    The one interception contract of both runtimes.  Subclasses override
    :meth:`intercept`.  Returning ``[]`` drops the message; returning the
    message unchanged passes it through; returning a modified copy corrupts
    it.  All returned messages must keep the original ``source``
    (assumption (c)).
    """

    def intercept(self, round_no: int, message: Message) -> List[Message]:
        return [message]

    def mutes_marker(self, round_no: int, node: NodeId) -> bool:
        """Whether *node* also withholds its end-of-round signal on the wire.

        Only the asyncio runtime asks: a muted node's receivers must ride
        out the round deadline to learn of its silence.  The lock-step
        engine has no markers and never calls this.
        """
        return False


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
        # A topology is immutable, so its links are read once, not asked
        # of the graph per message.
        links = topology.links
        self.processes: Dict[NodeId, Process] = {}
        for process in processes:
            if process.node_id in self.processes:
                raise SimulationError(
                    f"duplicate process for node {process.node_id!r}"
                )
            if process.node_id not in links:
                raise SimulationError(
                    f"process node {process.node_id!r} not in topology"
                )
            self.processes[process.node_id] = process
        self.injectors: List[FaultInjector] = list(injectors or [])
        self.trace: Optional[EventTrace] = EventTrace() if record_trace else None
        # ``_reachable[n]`` is every *other* node *n* has a link to that runs
        # a process, so one membership test admits a message.
        if len(links) != len(self.processes):
            links = {n: links[n] & self.processes.keys() for n in self.processes}
        self._reachable = links
        self._in_flight: List[Message] = []
        self.current_round = 0
        #: Messages the processes emitted so far, counted before injectors
        #: drop, alter or multiply them (one per ``sent`` trace event).
        self.emitted = 0
        #: The fixed stepping order (node ids by ``str``) of both runtimes.
        self.order: List[NodeId] = sorted(self.processes, key=str)

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
        self._in_flight, _ = self.emit(self.current_round, inboxes)

    def emit(
        self, round_no: int, inboxes: Dict[NodeId, List[Message]]
    ) -> Tuple[List[Message], int]:
        """The protocol half of round *round_no*, shared by both runtimes.

        Hands every process its inbox (each already in
        :func:`~repro.sim.messages.delivery_order`), steps the processes in
        the engine's fixed order, runs what they emit through the injector
        chain in list order and returns ``(survivors, dropped)``: the
        messages to deliver next round, in emission order, and how many
        emitted messages the injectors removed entirely.  ``delivered``,
        ``sent``, ``corrupted`` and ``dropped`` trace lines are written
        here, a round's ``delivered`` lines before any process steps.

        The Section 4 checks live here and nowhere else.  A process must
        emit under its own name and an injector must keep the source it
        was handed (assumption (c)); a survivor must address a known node
        other than its source; one with no link to ride is dropped with a
        ``no link`` trace line.  The destination checks run on survivors,
        after injection: a process that addresses itself is not an error
        if an injector drops that message.  Any breach raises
        :class:`~repro.exceptions.SimulationError`.
        """
        trace = self.trace
        if trace is not None:
            for node_id in self.order:
                for message in inboxes[node_id]:
                    trace.record_message(round_no, EventKind.DELIVERED, message)
        outgoing: List[Message] = []
        for node_id in self.order:
            for message in self.processes[node_id].step(round_no, inboxes[node_id]):
                if message.source != node_id:
                    raise SimulationError(
                        f"process {node_id!r} attempted to forge source "
                        f"{message.source!r}"
                    )
                outgoing.append(message)
        self.emitted += len(outgoing)

        survivors: List[Message] = []
        dropped = 0
        if self.injectors:
            for original in outgoing:
                wave = self._inject(round_no, original)
                if not wave:
                    dropped += 1
                self._admit(round_no, wave, survivors)
        elif trace is not None:
            # Nobody can alter a message: each is its own sole survivor,
            # admitted right after its ``sent`` line as _inject would.
            reachable = self._reachable
            for message in outgoing:
                trace.record_message(round_no, EventKind.SENT, message)
                if message.destination in reachable[message.source]:
                    survivors.append(message)
                else:
                    self._admit(round_no, (message,), survivors)
        else:
            # Nobody can alter a message and nobody records one: every
            # message is its own sole survivor.
            self._admit(round_no, outgoing, survivors)
        return survivors, dropped

    def _inject(self, round_no: int, original: Message) -> List[Message]:
        """What the injector chain leaves of *original*, traced."""
        trace = self.trace
        if trace is not None:
            trace.record_message(round_no, EventKind.SENT, original)
        wave = [original]
        for injector in self.injectors:
            next_wave: List[Message] = []
            for message in wave:
                replacements = injector.intercept(round_no, message)
                for replacement in replacements:
                    if replacement is message:
                        continue  # passed through untouched: nothing to check
                    if replacement.source != original.source:
                        raise SimulationError(
                            f"injector {type(injector).__name__} attempted to "
                            f"forge source {replacement.source!r} on a message "
                            f"from {original.source!r}"
                        )
                    if replacement.payload != message.payload and trace is not None:
                        trace.record_message(
                            round_no,
                            EventKind.CORRUPTED,
                            replacement,
                            note=f"by {type(injector).__name__}",
                        )
                next_wave.extend(replacements)
            wave = next_wave
        if not wave and trace is not None:
            trace.record_message(round_no, EventKind.DROPPED, original)
        return wave

    def _admit(
        self, round_no: int, wave: Sequence[Message], survivors: List[Message]
    ) -> None:
        """Append to *survivors* each message of *wave* with a link to ride."""
        reachable = self._reachable
        for message in wave:
            if message.destination in reachable[message.source]:
                survivors.append(message)
            elif message.destination not in self.processes:
                raise SimulationError(
                    f"message to unknown node {message.destination!r}"
                )
            elif message.destination == message.source:
                raise SimulationError(
                    f"node {message.source!r} attempted to message itself"
                )
            elif self.trace is not None:
                # No physical link: the message silently never arrives.  The
                # relay layer is responsible for multi-hop routing.
                self.trace.record_message(
                    round_no, EventKind.DROPPED, message, note="no link"
                )

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
