"""Exponential Information Gathering (EIG) tree for algorithm BYZ.

The message-passing implementation of BYZ(m, m) runs ``m + 1`` synchronous
rounds.  Every value a node learns is labelled by the *path* of senders it
travelled through: the direct value from the top-level sender ``s`` has path
``(s,)``; the value receiver ``j`` relayed about it has path ``(s, j)``; and
so on.  After the final round each node holds one value per path, organized
as a tree, and computes its decision by folding the tree bottom-up with the
paper's threshold vote.

Resolve rule (derived from the recursive definition in Section 4 — see the
module docstring of :mod:`repro.core.byz`): for a system of ``N`` nodes with
global parameter ``m``, at node ``i``,

* a *leaf* path (length ``m + 1``, or 2 when ``m = 0``) resolves to the
  stored value;
* an internal path ``pi`` resolves to ``VOTE(n_pi - 1 - m, n_pi - 1)`` over
  the stored value for ``pi`` itself (node i's "own" ballot ``w_i``) plus
  the resolved values of the children ``pi + (j,)`` for every node ``j``
  outside ``pi`` and different from ``i``, where ``n_pi = N - len(pi) + 1``
  is the number of participants of the sub-protocol that ``pi`` names.

The same tree, folded with a majority vote instead, implements Lamport's
OM(m) — the resolver is pluggable for exactly that reason.

Missing values (messages that never arrived) are stored as the default
value ``V_d``, matching the paper's assumption that message absence is
detected.

Which paths exist, in which order they are enumerated and relayed, and
which paths are whose children depend only on ``(all_nodes, owner, root,
depth)`` — never on a value.  :class:`EIGShape` computes that once per
shape (:func:`eig_shape`, bounded and memoized) and every tree, ingest and
relay of that shape looks it up.  :mod:`repro.core.byz` and
:mod:`repro.verify.oracle` deliberately do **not**: they enumerate on
their own, which is what makes them independent cross-checks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Sequence,
    Tuple,
)

from repro.core.values import DEFAULT, Value
from repro.core.vote import majority, vote
from repro.exceptions import ProtocolError

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


def _relay_key(path: PathT) -> Tuple[str, ...]:
    """Sort key of ``stored_paths`` and of the relay plan: each hop's ``str``."""
    return tuple(str(hop) for hop in path)


#: Shapes :func:`eig_shape` keeps, least recently used evicted.  A service
#: whose sender rotates over all ``N`` nodes touches ``N * (N - 1)`` shapes
#: (42 at N = 7, 90 at N = 10); one shape is about 6 KB at (2,2,7) and 80 KB
#: at (3,3,10), so a full cache of the largest configuration anything here
#: runs stays near 10 MB.
SHAPE_CACHE_SIZE = 128


class EIGShape:
    """What an EIG tree's ``(all_nodes, owner, root, depth)`` alone decides.

    Immutable, shared by every tree, ingest and relay of the same shape
    (fetch it with :func:`eig_shape`, never construct it per instance).
    All tables are tuples indexed by path length ``1 .. depth`` (index 0 is
    empty), and every path tuple exists once: the same objects sit in
    ``levels``, ``members`` and ``relay``.

    ``levels[k]``
        every length-``k`` path from ``(root,)`` extended by nodes that are
        neither on the path nor the owner, in depth-first order over
        ``all_nodes`` — the order the recursive enumeration produced.
        Every path of one level has the same number of children, and
        ``levels[k + 1]`` lists them parent by parent, so the children of
        ``levels[k][i]`` are the slice ``levels[k + 1][i * fan:(i + 1) *
        fan]`` with ``fan = len(levels[k + 1]) // len(levels[k])``: the
        fold needs no child table beyond that.
    ``expected[k]``
        the paths of length ``k`` the owner can legitimately be sent:
        ``levels[k]``, or nothing at all when ``root == owner`` (nobody
        relays a value to a node through that node).
    ``members[k]``
        ``frozenset(expected[k])``.  Membership is the *whole* structural
        check on a relayed path: a path is in it iff it has length ``k``,
        starts at ``root``, repeats no node, names only known nodes and
        avoids the owner.
    ``relay[k]`` (``k < depth``)
        one ``(path, path + (owner,), destinations)`` per expected path, in
        ``EIGTree.stored_paths`` order (sorted by the ``str`` of each hop —
        node ids are assumed to have distinct ``str``); ``destinations``
        are the nodes not on the extended path, in ``all_nodes`` order.
    """

    __slots__ = ("levels", "expected", "members", "relay")

    def __init__(
        self, all_nodes: Tuple[NodeId, ...], owner: NodeId, root: NodeId, depth: int
    ) -> None:
        levels: List[Tuple[PathT, ...]] = [(), ((root,),)]
        for _ in range(1, depth):
            levels.append(
                tuple(
                    path + (node,)
                    for path in levels[-1]
                    for node in all_nodes
                    if node != owner and node not in path
                )
            )
        self.levels: Tuple[Tuple[PathT, ...], ...] = tuple(levels)
        self.expected: Tuple[Tuple[PathT, ...], ...] = (
            self.levels if root != owner else ((),) * (depth + 1)
        )
        self.members: Tuple[FrozenSet[PathT], ...] = tuple(
            frozenset(level) for level in self.expected
        )
        relay: List[tuple] = [()]
        for level in self.expected[1:depth]:
            plan = []
            for path in sorted(level, key=_relay_key):
                extended = path + (owner,)
                plan.append(
                    (path, extended, tuple(d for d in all_nodes if d not in extended))
                )
            relay.append(tuple(plan))
        self.relay: Tuple[tuple, ...] = tuple(relay)


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def eig_shape(
    all_nodes: Tuple[NodeId, ...], owner: NodeId, root: NodeId, depth: int
) -> EIGShape:
    """The shared :class:`EIGShape` for these arguments (bounded memo)."""
    return EIGShape(all_nodes, owner, root, depth)


class EIGTree:
    """Per-node store of path-labelled values plus the resolve fold.

    The tree holds only values; everything structural — which paths to
    expect, their order, who is whose child — is looked up in the
    :class:`EIGShape` of ``(all_nodes, owner, root, depth)``.

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
        #: path -> value, in filing order.  :meth:`store` is the validating
        #: writer; ``AgreementProcess._ingest`` writes here directly once
        #: ``EIGShape.members`` has vouched for the path.
        self.stored: Dict[PathT, Value] = {}

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    def store(self, path: PathT, value: Value) -> None:
        """Record the value received for *path* (overwrites silently)."""
        self._validate_path(path)
        self.stored[path] = value

    def value(self, path: PathT) -> Value:
        """Stored value for *path*; ``V_d`` when nothing arrived."""
        return self.stored.get(path, DEFAULT)

    def has(self, path: PathT) -> bool:
        return path in self.stored

    def stored_paths(self, length: int) -> List[PathT]:
        """All stored paths of the given length, in deterministic order."""
        return sorted(
            (p for p in self.stored if len(p) == length), key=_relay_key
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
            return iter(())
        return iter(
            eig_shape(self.all_nodes, self.owner, root, self.depth).expected[length]
        )

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(
        self, root: NodeId, m: int, resolver: Resolver = byz_resolver
    ) -> Value:
        """Fold the tree rooted at ``(root,)`` into this node's decision.

        Bottom-up, one level at a time over ``EIGShape.levels``: the leaf
        level resolves to the stored values, and each internal path to
        ``resolver(n_pi - 1 - m, [own value, *children's results])`` — one
        *resolver* call per internal path, children taken as that path's
        slice of the level below.  The threshold depends on the level
        only, so it is checked once per level, top-down and before any
        vote, which reports the same path the depth-first recursion met
        first; the ballot count is still checked per path.
        """
        depth = self.depth
        levels = eig_shape(self.all_nodes, self.owner, root, depth).levels
        n_total = self.n_total
        for length in range(1, depth):
            if levels[length] and n_total - length - m <= 0:
                raise ProtocolError(
                    f"non-positive vote threshold at path "
                    f"{levels[length][0]!r}: n_pi={n_total - length + 1}, m={m}"
                )
        value = self.stored.get
        resolved: List[Value] = [value(path, DEFAULT) for path in levels[depth]]
        for length in range(depth - 1, 0, -1):
            paths = levels[length]
            if not paths:
                continue
            n_ballots = n_total - length
            threshold = n_ballots - m
            fan = len(resolved) // len(paths)
            folded: List[Value] = []
            stop = 0
            for path in paths:
                start, stop = stop, stop + fan
                ballots = [value(path, DEFAULT), *resolved[start:stop]]
                if len(ballots) != n_ballots:
                    raise ProtocolError(
                        f"ballot count mismatch at {path!r}: got "
                        f"{len(ballots)}, expected {n_ballots}"
                    )
                folded.append(resolver(threshold, ballots))
            resolved = folded
        return resolved[0]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.stored)

    def items(self) -> Iterable[Tuple[PathT, Value]]:
        return self.stored.items()


def expected_path_count(n_nodes: int, depth: int) -> int:
    """Number of paths an EIG tree holds when fully populated.

    ``sum over r in 1..depth of (n-1)(n-2)...(n-r)`` from the perspective of
    one receiver (paths avoid the owner).
    """
    total = 0
    for length in range(1, depth + 1):
        term = 1
        for k in range(length):
            term *= n_nodes - 1 - k
        total += term
    return total
