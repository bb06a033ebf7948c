"""Message-passing implementation of algorithm BYZ (and OM) on the simulator.

While :mod:`repro.core.byz` executes the recursion directly, this module
runs the *actual distributed protocol*: ``m + 1`` synchronous communication
rounds of relay messages over a :class:`~repro.sim.network.Topology`,
followed by the EIG resolve.  Fault-free nodes here genuinely only see their
own inboxes; Byzantine corruption happens in flight via
:class:`~repro.sim.faults.ByzantineRelayInjector`, driven by the same
behaviour objects as the functional oracle — which is what makes exact
differential testing between the two implementations possible.

Round structure (engine rounds; ``R = spec.rounds``):

* round 1 — the sender emits the direct wave (paths of length 1) and
  decides its own value;
* rounds ``2 .. R`` — every receiver ingests the previous wave into its EIG
  tree (substituting ``V_d`` for expected-but-absent messages, per model
  assumption (b)) and relays it with its own id appended;
* round ``R + 1`` — receivers ingest the final wave and decide by folding
  their EIG tree.

The protocol assumes full connectivity (as the paper does for algorithm
BYZ).  For sparse topologies, wrap the engine with the disjoint-path relay
layer from :mod:`repro.sim.routing`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from repro.core.behavior import BehaviorMap
from repro.core.byz import AgreementResult, ExecutionStats
from repro.core.eig import (
    SHAPE_CACHE_SIZE,
    EIGTree,
    Resolver,
    byz_resolver,
    eig_shape,
    majority_resolver,
)
from repro.core.spec import DegradableSpec
from repro.core.values import DEFAULT, Value
from repro.exceptions import ConfigurationError, ProtocolError
from repro.sim.engine import FaultInjector, SynchronousEngine
from repro.sim.faults import behavior_injectors
from repro.sim.messages import Message, RelayPayload
from repro.sim.network import Topology
from repro.sim.node import Process
from repro.sim.trace import EventKind, EventTrace, TraceEvent

NodeId = Hashable


class AgreementProcess(Process):
    """One node of the EIG-based agreement protocol.

    Parameterized by EIG depth and resolver so the same machinery yields
    algorithm BYZ (threshold vote, depth ``max(m,1)+1``) and Lamport's OM
    (majority vote, depth ``m+1``).
    """

    def __init__(
        self,
        node_id: NodeId,
        all_nodes: Sequence[NodeId],
        sender: NodeId,
        m: int,
        depth: int,
        resolver: Resolver,
        value: Value = None,
        tag: str = "agreement",
    ) -> None:
        super().__init__(node_id)
        self.all_nodes: Tuple[NodeId, ...] = tuple(all_nodes)
        self.sender = sender
        self.m = m
        self.depth = depth
        self.resolver = resolver
        self.value = value
        self.tag = tag
        self.is_sender = node_id == sender
        #: Count of expected-but-absent messages this node resolved to
        #: ``V_d`` (model assumption (b)).  On the synchronous engine an
        #: absence is a message dropped in flight; on the async runtime it
        #: is a missed round deadline — either way it lands here, which is
        #: what lets the equivalence tests compare the two paths.
        self.absence_substitutions = 0
        #: Optional :class:`~repro.sim.trace.EventTrace` this process logs
        #: its *protocol-level* events into (``defaulted`` substitutions
        #: and its ``decided`` event).  Transport traffic is the runtime's
        #: business; these two kinds are only observable inside the state
        #: machine, so the process must emit them itself for traces to be
        #: auditable offline.
        self.trace: Optional[EventTrace] = None
        if not self.is_sender:
            self.tree = EIGTree(node_id, self.all_nodes, depth)
            # Which relays to accept, expect and forward is a property of
            # the shape alone; it is shared with every process of it.
            self._shape = eig_shape(self.all_nodes, node_id, sender, depth)

    # ------------------------------------------------------------------
    def step(self, round_no: int, inbox: Sequence[Message]) -> List[Message]:
        if self.is_sender:
            return self._sender_step(round_no)
        return self._receiver_step(round_no, inbox)

    def _sender_step(self, round_no: int) -> List[Message]:
        if round_no == 1:
            self.decide(self.value)
            self._trace_decision(round_no)
            payload = RelayPayload(path=(self.node_id,), value=self.value)
            return [
                self.send(dest, payload, round_no, tag=self.tag)
                for dest in self.all_nodes
                if dest != self.node_id
            ]
        return []

    def _receiver_step(self, round_no: int, inbox: Sequence[Message]) -> List[Message]:
        self._ingest(round_no, inbox)
        outgoing: List[Message] = []
        if 2 <= round_no <= self.depth:
            outgoing = self._relay_wave(round_no)
        if round_no == self.depth + 1 and not self.decided:
            self.decide(self.tree.resolve(self.sender, self.m, self.resolver))
            self._trace_decision(round_no)
        return outgoing

    def _ingest(self, round_no: int, inbox: Sequence[Message]) -> None:
        """Store the previous wave; mark absent expected messages as V_d.

        A relay is filed iff it carries this instance's tag, its path is a
        member of the shape's expected set for this wave — one lookup that
        says right length, rooted at the sender, no repeated or unknown
        node, this node not on it — and its last hop is the node that sent
        it (a node may only relay under its own identity; the runtimes
        already prevent source forgery, so a mismatched last hop is a
        Byzantine fabrication).  Anything else is ignored and absence
        handling covers it; a duplicate overwrites, so the last one in
        delivery order wins.  Then every expected path still missing is
        filed as ``V_d`` in enumeration order (assumption (b)).
        """
        wave_length = round_no - 1
        if wave_length < 1 or wave_length > self.depth:
            return
        members = self._shape.members[wave_length]
        stored = self.tree.stored
        tag = self.tag
        before = len(stored)
        for message in inbox:
            payload = message.payload
            if not isinstance(payload, RelayPayload) or message.tag != tag:
                continue
            path = payload.path
            try:
                expected = path in members
            except TypeError:
                continue  # an unhashable hop names no node
            if expected and path[-1] == message.source:
                stored[path] = payload.value
        level = self._shape.expected[wave_length]
        if len(stored) - before == len(level):
            return  # the whole wave arrived
        for path in level:
            if path not in stored:
                stored[path] = DEFAULT
                self.absence_substitutions += 1
                if self.trace is not None:
                    self.trace.record(
                        TraceEvent(
                            round_no, EventKind.DEFAULTED, self.node_id, None,
                            path, "absent relay resolved to V_d",
                        )
                    )

    def _trace_decision(self, round_no: int) -> None:
        if self.trace is not None:
            self.trace.record(
                TraceEvent(
                    round_no, EventKind.DECIDED, self.node_id, None, self.decision
                )
            )

    def _relay_wave(self, round_no: int) -> List[Message]:
        """Forward every value of the previous wave, tagged with our id.

        ``_ingest`` has just filed every expected path of that wave, so
        the shape's relay plan (``stored_paths`` order, extended paths and
        destinations precomputed) is exactly what is stored.
        """
        stored = self.tree.stored
        source, tag = self.node_id, self.tag
        outgoing: List[Message] = []
        for path, extended, destinations in self._shape.relay[round_no - 1]:
            payload = RelayPayload(extended, stored[path])
            for dest in destinations:
                outgoing.append(Message(source, dest, payload, round_no, tag))
        return outgoing


# ----------------------------------------------------------------------
# Transport-facing driver seam
# ----------------------------------------------------------------------
_NOBODY: FrozenSet[NodeId] = frozenset()


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _source_table(
    nodes: Tuple[NodeId, ...], sender: NodeId
) -> Tuple[Dict[NodeId, FrozenSet[NodeId]], Dict[NodeId, FrozenSet[NodeId]]]:
    """Who can send to whom, fixed by ``(nodes, sender)`` and shared by every
    session of them: ``(direct wave, relay waves)``, each ``receiver ->
    sources``.  The direct wave reaches every receiver from the sender
    alone; a relay wave reaches it from every *other* receiver.  The sender
    is in neither table: nothing is ever addressed to it.
    """
    receivers = [node for node in nodes if node != sender]
    direct = frozenset((sender,))
    return (
        {node: direct for node in receivers},
        {node: frozenset(n for n in receivers if n != node) for node in receivers},
    )


#: The wait-set table of a round no node waits in.
_NO_WAITS: Dict[NodeId, Tuple[NodeId, ...]] = {}


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _wait_tables(
    nodes: Tuple[NodeId, ...], sender: NodeId
) -> Tuple[Dict[NodeId, Tuple[NodeId, ...]], ...]:
    """:func:`_source_table` as the runtimes publish it: ``(direct wave,
    relay waves)``, each ``receiver -> sources`` with the receivers in
    stepping order (``str``) and each source tuple sorted by ``str``.
    Receivers with no source are left out."""
    order = sorted(nodes, key=str)
    return tuple(
        {
            node: tuple(sorted(table[node], key=str))
            for node in order
            if table.get(node)
        }
        for table in _source_table(nodes, sender)
    )


class ProtocolSession:
    """Transport-agnostic handle on one message-passing protocol run.

    The protocol logic lives entirely in the :class:`AgreementProcess`
    state machines; what varies between runtimes is only *who ferries the
    messages between rounds*.  A session bundles everything a runtime needs
    to drive one agreement instance — the processes, the total round count,
    and result collection — so the synchronous engine
    (:func:`execute_degradable_protocol`) and the asyncio runtime
    (:class:`repro.net.AsyncRoundRunner`) execute literally the same
    protocol code over different transports.
    """

    def __init__(
        self,
        spec: DegradableSpec,
        nodes: Sequence[NodeId],
        sender: NodeId,
        sender_value: Value,
        processes: Sequence[AgreementProcess],
    ) -> None:
        self.spec = spec
        self.nodes: Tuple[NodeId, ...] = tuple(nodes)
        self.sender = sender
        self.sender_value = sender_value
        self.processes: List[AgreementProcess] = list(processes)
        self.process_map: Dict[NodeId, AgreementProcess] = {
            p.node_id: p for p in self.processes
        }
        self._direct_sources, self._relay_sources = _source_table(
            self.nodes, sender
        )

    @classmethod
    def byz(
        cls,
        spec: DegradableSpec,
        nodes: Sequence[NodeId],
        sender: NodeId,
        sender_value: Value,
        tag: str = "byz",
    ) -> "ProtocolSession":
        """Session for one m/u-degradable agreement (algorithm BYZ) run."""
        return cls(
            spec,
            nodes,
            sender,
            sender_value,
            make_byz_processes(spec, nodes, sender, sender_value, tag=tag),
        )

    def attach_trace(self, trace: Optional[EventTrace]) -> None:
        """Point every process's protocol-level event log at *trace*.

        Runtimes call this with the same trace they record transport events
        into, producing one merged, chronologically ordered stream.
        """
        for process in self.processes:
            process.trace = trace

    @property
    def total_rounds(self) -> int:
        """Engine rounds one run needs: ``spec.rounds`` waves + the final
        ingest-and-decide round."""
        return self.spec.rounds + 1

    @property
    def substitutions(self) -> int:
        """Total ``V_d`` substitutions for absent messages across all nodes."""
        return sum(p.absence_substitutions for p in self.processes)

    def all_decided(self) -> bool:
        return all(p.decided for p in self.processes)

    @property
    def data_rounds(self) -> int:
        """Engine rounds that carry protocol data (the EIG depth).

        Rounds beyond this are pure ingest-and-decide rounds; nothing is
        on the wire.
        """
        return self.process_map[self.sender].depth

    def expected_sources(self, round_no: int, node: NodeId) -> FrozenSet[NodeId]:
        """Nodes that can, by protocol structure, send data to *node*.

        The round schedule of the EIG protocol is common knowledge (the
        paper's synchronous model): round 1 carries only the sender's
        direct wave; rounds ``2 .. data_rounds`` carry receiver-to-receiver
        relays (every relay path starts at the sender, so the sender is
        never a relay destination); later rounds carry nothing.  Faulty
        nodes cannot enlarge this set — behaviours and injectors transform
        or suppress messages the honest state machines emitted, they never
        mint traffic in rounds the protocol left silent.

        Batched runtimes use this to wait only on links that can carry
        data: a receiver's round closes once a batch (or the deadline)
        resolved every expected source, with no marker traffic on the
        protocol's structurally silent links.

        The answer is one of the frozensets of a table fixed by ``(nodes,
        sender)`` and shared by every session of them — nothing is built
        per call.
        """
        if round_no == 1:
            return self._direct_sources.get(node, _NOBODY)
        if 2 <= round_no <= self.data_rounds:
            return self._relay_sources.get(node, _NOBODY)
        return _NOBODY

    def wait_sets(self, round_no: int) -> Dict[NodeId, Tuple[NodeId, ...]]:
        """Round *round_no*'s wait-set table: every node that expects data,
        in stepping order, with its :meth:`expected_sources` sorted by
        ``str``.  One table per ``(nodes, sender, round)``, shared by every
        session of them — read it, never write into it."""
        if round_no == 1:
            return _wait_tables(self.nodes, self.sender)[0]
        if 2 <= round_no <= self.data_rounds:
            return _wait_tables(self.nodes, self.sender)[1]
        return _NO_WAITS

    def collect_result(self, messages: int = 0, rounds: int = 0) -> AgreementResult:
        """Package every receiver's decision as an :class:`AgreementResult`.

        Raises :class:`~repro.exceptions.ProtocolError` if any receiver has
        not decided — a correctly driven run always decides within
        :attr:`total_rounds`.
        """
        decisions: Dict[NodeId, Value] = {}
        for process in self.processes:
            if process.node_id == self.sender:
                continue
            if not process.decided:
                raise ProtocolError(
                    f"receiver {process.node_id!r} failed to decide within "
                    f"{rounds} rounds"
                )
            decisions[process.node_id] = process.decision
        stats = ExecutionStats(
            messages=messages, rounds=rounds, substitutions=self.substitutions
        )
        return AgreementResult(
            decisions=decisions,
            sender=self.sender,
            sender_value=self.sender_value,
            stats=stats,
        )


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------
def make_byz_processes(
    spec: DegradableSpec,
    nodes: Sequence[NodeId],
    sender: NodeId,
    sender_value: Value,
    tag: str = "byz",
) -> List[AgreementProcess]:
    """Processes for one m/u-degradable agreement instance."""
    if len(nodes) != spec.n_nodes:
        raise ConfigurationError(
            f"spec expects {spec.n_nodes} nodes, got {len(nodes)}"
        )
    if sender not in nodes:
        raise ConfigurationError(f"sender {sender!r} not among nodes")
    nodes = tuple(nodes)  # one tuple for all N processes and their trees
    return [
        AgreementProcess(
            node_id=node,
            all_nodes=nodes,
            sender=sender,
            m=spec.m,
            depth=spec.rounds,
            resolver=byz_resolver,
            value=sender_value if node == sender else None,
            tag=tag,
        )
        for node in nodes
    ]


def make_om_processes(
    m: int,
    nodes: Sequence[NodeId],
    sender: NodeId,
    sender_value: Value,
    tag: str = "om",
) -> List[AgreementProcess]:
    """Processes for one Lamport OM(m) instance (depth m+1, majority)."""
    if sender not in nodes:
        raise ConfigurationError(f"sender {sender!r} not among nodes")
    return [
        AgreementProcess(
            node_id=node,
            all_nodes=nodes,
            sender=sender,
            m=m,
            depth=m + 1 if m > 0 else 1,
            resolver=majority_resolver,
            value=sender_value if node == sender else None,
            tag=tag,
        )
        for node in nodes
    ]


def execute_degradable_protocol(
    spec: DegradableSpec,
    nodes: Sequence[NodeId],
    sender: NodeId,
    sender_value: Value,
    behaviors: Optional[BehaviorMap] = None,
    topology: Optional[Topology] = None,
    extra_injectors: Optional[Sequence[FaultInjector]] = None,
    record_trace: bool = True,
) -> Tuple[AgreementResult, SynchronousEngine]:
    """Run the full message-passing protocol and package the outcome.

    Returns the same :class:`~repro.core.byz.AgreementResult` shape as the
    functional oracle (decisions of every receiver) plus the engine, whose
    trace the experiments mine for views and message counts.
    """
    topology = topology or Topology.complete(nodes)
    session = ProtocolSession.byz(spec, nodes, sender, sender_value)
    injectors = [*behavior_injectors(behaviors), *(extra_injectors or ())]
    engine = SynchronousEngine(
        topology, session.processes, injectors, record_trace=record_trace
    )
    session.attach_trace(engine.trace)
    rounds = engine.run(session.total_rounds)
    result = session.collect_result(messages=engine.emitted, rounds=rounds)
    return result, engine
