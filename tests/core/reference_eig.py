"""The pre-table EIG tree, vote and agreement process, kept verbatim as the differential oracle.

These are the bodies ``repro.core.eig.EIGTree`` (recursive ``_extend``
path enumeration, recursive ``_resolve_path`` fold, validate-on-store),
``repro.core.vote.vote`` (``collections.Counter``) and
``repro.core.protocol.AgreementProcess`` (``_ingest`` re-checking each
relay property by hand and re-validating in ``store``, ``_relay_wave``
re-sorting ``stored_paths`` every round) had before the shape of the tree
was computed once into ``repro.core.eig.EIGShape``.  Nothing here is
imported by ``src/``; ``test_eig_differential.py`` requires the live
implementations to agree with it — same path lists in the same order, same
folds, same errors, same outgoing messages, substitution counts and
``defaulted`` events.  Do not "fix" or speed up this file: it is the
definition the table is checked against.

One deliberate difference, pinned by the differential test: this
``_ingest`` hands a relay whose path repeats a node or names an unknown
node to ``store``, which *raises* ``ProtocolError``; the live ``_ingest``
refuses such a relay like every other malformed one (membership in the
shape table is the whole structural check), which is what
``repro.verify.oracle`` always assumed ("the honest ingest silently
discards these").
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.values import DEFAULT, Value
from repro.core.vote import majority
from repro.exceptions import ConfigurationError, ProtocolError
from repro.sim.messages import Message, RelayPayload
from repro.sim.node import Process
from repro.sim.trace import EventKind, EventTrace, TraceEvent


# ----------------------------------------------------------------------
# repro/core/vote.py::vote
# ----------------------------------------------------------------------
def vote(threshold: int, values: Sequence[Value]) -> Value:
    """The paper's ``VOTE(alpha, beta)`` with ``alpha = threshold``.

    Parameters
    ----------
    threshold:
        Minimum multiplicity ``alpha`` a value needs to win.
    values:
        The ``beta`` ballots.  ``beta`` is taken to be ``len(values)``; the
        caller is responsible for passing exactly the vector the protocol
        prescribes (missing messages must already have been replaced by
        ``V_d`` upstream).

    Returns
    -------
    The unique value reaching the threshold, or :data:`DEFAULT` when no value
    reaches it or two distinct values tie at or above it.

    Raises
    ------
    ConfigurationError
        If *threshold* is not positive — a non-positive threshold would make
        every value (and the default) "win" — or if it exceeds the ballot
        count.  The paper's ``VOTE(alpha, beta)`` presumes ``alpha <= beta``;
        a threshold no ballot vector can reach is always a caller bug (a
        short ballot vector, usually a missing upstream ``V_d``
        substitution), and silently returning the default would mask it.
        ``alpha == beta`` is legal: that is the unanimity vote.
    """
    if threshold <= 0:
        raise ConfigurationError(
            f"VOTE threshold must be positive, got {threshold}"
        )
    if threshold > len(values):
        raise ConfigurationError(
            f"VOTE threshold alpha={threshold} exceeds ballot count "
            f"beta={len(values)}: the paper's VOTE(alpha, beta) presumes "
            f"alpha <= beta — the caller passed a short ballot vector"
        )
    counts = Counter(values)
    winners = [v for v, c in counts.items() if c >= threshold]
    if len(winners) == 1:
        return winners[0]
    # No winner, or a tie between two (or more) values: default.
    return DEFAULT


# ----------------------------------------------------------------------
# repro/core/eig.py::EIGTree and the resolvers
# ----------------------------------------------------------------------
NodeId = Hashable
PathT = Tuple[NodeId, ...]

#: A resolver takes (threshold, ballots) and returns the voted value.
Resolver = Callable[[int, Sequence[Value]], Value]


def byz_resolver(threshold: int, ballots: Sequence[Value]) -> Value:
    """The paper's ``VOTE(alpha, beta)`` as an EIG resolver."""
    return vote(threshold, ballots)


def majority_resolver(threshold: int, ballots: Sequence[Value]) -> Value:
    """Strict-majority resolver (ignores the threshold) — yields OM(m)."""
    return majority(ballots)


class EIGTree:
    """Per-node store of path-labelled values plus the resolve fold.

    Parameters
    ----------
    owner:
        The node this tree belongs to (its id never appears inside stored
        paths: nobody relays a value *to* a node through that same node).
    all_nodes:
        Every node id in the system, sender included.
    depth:
        Maximum path length, i.e. number of message rounds
        (``m + 1``, or 2 for ``m = 0``).
    """

    def __init__(self, owner: NodeId, all_nodes: Sequence[NodeId], depth: int) -> None:
        if depth < 1:
            raise ProtocolError(f"EIG depth must be >= 1, got {depth}")
        self.owner = owner
        self.all_nodes: Tuple[NodeId, ...] = tuple(all_nodes)
        if owner not in self.all_nodes:
            raise ProtocolError(f"owner {owner!r} not among nodes")
        self.n_total = len(self.all_nodes)
        self.depth = depth
        self._values: Dict[PathT, Value] = {}

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    def store(self, path: PathT, value: Value) -> None:
        """Record the value received for *path* (overwrites silently)."""
        self._validate_path(path)
        self._values[path] = value

    def value(self, path: PathT) -> Value:
        """Stored value for *path*; ``V_d`` when nothing arrived."""
        return self._values.get(path, DEFAULT)

    def has(self, path: PathT) -> bool:
        return path in self._values

    def stored_paths(self, length: int) -> List[PathT]:
        """All stored paths of the given length, in deterministic order."""
        return sorted(
            (p for p in self._values if len(p) == length),
            key=lambda p: tuple(str(x) for x in p),
        )

    def _validate_path(self, path: PathT) -> None:
        if not path:
            raise ProtocolError("EIG path must be non-empty")
        if len(path) > self.depth:
            raise ProtocolError(
                f"EIG path {path!r} longer than tree depth {self.depth}"
            )
        if len(set(path)) != len(path):
            raise ProtocolError(f"EIG path {path!r} repeats a node")
        if self.owner in path:
            raise ProtocolError(
                f"EIG path {path!r} contains the tree owner {self.owner!r}"
            )
        unknown = [p for p in path if p not in self.all_nodes]
        if unknown:
            raise ProtocolError(f"EIG path contains unknown nodes {unknown!r}")

    # ------------------------------------------------------------------
    # Path enumeration (used to know which messages to expect / relay)
    # ------------------------------------------------------------------
    def expected_paths(self, length: int, root: NodeId) -> Iterator[PathT]:
        """Every path of the given length starting at *root* that this tree
        could legitimately receive (distinct nodes, owner excluded)."""
        if length < 1 or length > self.depth:
            return
        yield from self._extend((root,), length)

    def _extend(self, prefix: PathT, length: int) -> Iterator[PathT]:
        if self.owner in prefix:
            return
        if len(prefix) == length:
            yield prefix
            return
        for node in self.all_nodes:
            if node in prefix or node == self.owner:
                continue
            yield from self._extend(prefix + (node,), length)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(
        self, root: NodeId, m: int, resolver: Resolver = byz_resolver
    ) -> Value:
        """Fold the tree rooted at ``(root,)`` into this node's decision."""
        return self._resolve_path((root,), m, resolver)

    def _resolve_path(self, path: PathT, m: int, resolver: Resolver) -> Value:
        if len(path) >= self.depth:
            return self.value(path)
        n_pi = self.n_total - len(path) + 1
        threshold = n_pi - 1 - m
        if threshold <= 0:
            raise ProtocolError(
                f"non-positive vote threshold at path {path!r}: n_pi={n_pi}, m={m}"
            )
        ballots: List[Value] = [self.value(path)]
        for child in self.all_nodes:
            if child in path or child == self.owner:
                continue
            ballots.append(self._resolve_path(path + (child,), m, resolver))
        if len(ballots) != n_pi - 1:
            raise ProtocolError(
                f"ballot count mismatch at {path!r}: got {len(ballots)}, "
                f"expected {n_pi - 1}"
            )
        return resolver(threshold, ballots)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._values)

    def items(self) -> Iterable[Tuple[PathT, Value]]:
        return self._values.items()


# ----------------------------------------------------------------------
# repro/core/protocol.py::AgreementProcess
# ----------------------------------------------------------------------
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
        """Store the previous wave; mark absent expected messages as V_d."""
        wave_length = round_no - 1
        if wave_length < 1 or wave_length > self.depth:
            return
        for message in inbox:
            payload = message.payload
            if not isinstance(payload, RelayPayload) or message.tag != self.tag:
                continue
            path = payload.path
            if len(path) != wave_length:
                continue  # stale or malformed relay; absence handling covers it
            if path[0] != self.sender:
                continue
            if path[-1] != message.source:
                # A node may only relay under its own identity; the engine
                # already prevents source forgery, so a mismatched last hop
                # is a Byzantine fabrication we refuse to file.
                continue
            if self.node_id in path:
                continue
            self.tree.store(path, payload.value)
        # Absence detection (assumption (b)): every expected path of this
        # wave that did not arrive is recorded as the default value.
        for path in self.tree.expected_paths(wave_length, self.sender):
            if not self.tree.has(path):
                self.tree.store(path, DEFAULT)
                self.absence_substitutions += 1
                if self.trace is not None:
                    self.trace.record(
                        TraceEvent(
                            round_no=round_no,
                            kind=EventKind.DEFAULTED,
                            source=self.node_id,
                            destination=None,
                            payload=path,
                            note="absent relay resolved to V_d",
                        )
                    )

    def _trace_decision(self, round_no: int) -> None:
        if self.trace is not None:
            self.trace.record(
                TraceEvent(
                    round_no=round_no,
                    kind=EventKind.DECIDED,
                    source=self.node_id,
                    destination=None,
                    payload=self.decision,
                )
            )

    def _relay_wave(self, round_no: int) -> List[Message]:
        """Forward every value of the previous wave, tagged with our id."""
        previous_length = round_no - 1
        outgoing: List[Message] = []
        for path in self.tree.stored_paths(previous_length):
            extended = path + (self.node_id,)
            payload = RelayPayload(path=extended, value=self.tree.value(path))
            for dest in self.all_nodes:
                if dest in extended:
                    continue
                outgoing.append(self.send(dest, payload, round_no, tag=self.tag))
        return outgoing
