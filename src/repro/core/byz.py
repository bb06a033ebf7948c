"""Algorithm BYZ — the paper's m/u-degradable agreement protocol (Section 4).

This module is the *functional* implementation: it executes the recursive
algorithm directly, with faulty nodes driven by :class:`~repro.core.behavior.Behavior`
objects.  It serves as the ground-truth oracle; the message-passing
implementation in :mod:`repro.core.protocol` is differentially tested
against it.

Algorithm recap (N total nodes, parameters m and u, ``N > 2m + u``):

``BYZ(1, m)`` over ``n`` nodes:
    1. the sender sends its value to the ``n - 1`` receivers;
    2. every receiver echoes the value it received to the other receivers;
    3. every receiver applies ``VOTE(n - 1 - m, n - 1)`` to the ``n - 1``
       values it now holds (its own direct value plus ``n - 2`` echoes).

``BYZ(t, m)`` over ``n`` nodes, ``1 < t <= m``:
    1. the sender sends its value to the ``n - 1`` receivers;
    2. every receiver acts as the sender of ``BYZ(t - 1, m)`` over the
       ``n - 1`` receivers to forward the value it received;
    3. every receiver applies ``VOTE(n - 1 - m, n - 1)`` to its own direct
       value plus the ``n - 2`` sub-protocol results.

The top-level call is ``BYZ(m, m)`` with ``n = N``.  Note that ``m`` — and
hence the vote threshold rule ``alpha = n - 1 - m`` — is fixed across
recursion levels while ``n`` shrinks by one per level.

``m = 0`` (omitted in the paper): we run the ``BYZ(1, m)`` structure with
the unanimity vote ``VOTE(n - 1, n - 1)``.  A single direct round would
violate condition D.4 (a faulty sender could induce arbitrarily many
distinct values); the echo round plus unanimity restores the two-class
guarantee.  See DESIGN.md and ``tests/core/test_byz_m0.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from repro._slots import slotted
from repro.core.behavior import BehaviorMap, Path, behavior_for
from repro.core.spec import DegradableSpec
from repro.core.values import Value
from repro.core.vote import vote
from repro.exceptions import ConfigurationError

NodeId = Hashable


@slotted
@dataclass
class ExecutionStats:
    """Message and round accounting for one protocol execution."""

    messages: int = 0
    rounds: int = 0
    votes: int = 0
    #: Expected-but-absent messages resolved to ``V_d`` per assumption (b).
    #: Filled by the message-passing implementations (sync engine and the
    #: async runtime); the functional oracle enforces absence structurally
    #: and always reports 0.
    substitutions: int = 0


@slotted
@dataclass
class AgreementResult:
    """Outcome of one degradable-agreement execution.

    Attributes
    ----------
    decisions:
        Final decision of every *receiver* (faulty receivers included; their
        entries are what the protocol computes at them, which is meaningful
        only for bookkeeping).  The sender is not included: a fault-free
        sender trivially holds its own value (see :meth:`decision_of`).
    sender:
        The sender's node id.
    sender_value:
        The value the sender held (its honest input).
    stats:
        Message/round counters.
    """

    decisions: Dict[NodeId, Value]
    sender: NodeId
    sender_value: Value
    stats: ExecutionStats = field(default_factory=ExecutionStats)

    def decision_of(self, node: NodeId) -> Value:
        """Decision of *node*, treating the sender as deciding its own value."""
        if node == self.sender:
            return self.sender_value
        return self.decisions[node]


#: A transport carries an already-(possibly-)corrupted value from source to
#: destination and returns what the destination accepts.  The identity
#: function models the paper's reliable fully connected network; the
#: disjoint-path relay layer (:mod:`repro.sim.routing`) substitutes values
#: corrupted or suppressed en route.
Transport = Callable[[Path, NodeId, NodeId, Value], Value]


def direct_transport(path: Path, source: NodeId, dest: NodeId, value: Value) -> Value:
    """Reliable point-to-point delivery (model assumption (a))."""
    return value


class _Execution:
    """Shared state for one recursive run (behaviours + counters)."""

    __slots__ = ("threshold_m", "behaviors", "stats", "transport")

    def __init__(
        self,
        threshold_m: int,
        behaviors: Optional[BehaviorMap],
        transport: Optional[Transport] = None,
    ) -> None:
        self.threshold_m = threshold_m
        self.behaviors = behaviors or {}
        self.stats = ExecutionStats()
        self.transport = transport or direct_transport

    def transmit(self, path: Path, source: NodeId, dest: NodeId, honest: Value) -> Value:
        self.stats.messages += 1
        sent = behavior_for(self.behaviors, source).send(path, source, dest, honest)
        return self.transport(path, source, dest, sent)


def run_degradable_agreement(
    spec: DegradableSpec,
    nodes: Sequence[NodeId],
    sender: NodeId,
    sender_value: Value,
    behaviors: Optional[BehaviorMap] = None,
    transport: Optional[Transport] = None,
) -> AgreementResult:
    """Execute algorithm BYZ(m, m) and return every receiver's decision.

    Parameters
    ----------
    spec:
        The (m, u, N) instance.  ``len(nodes)`` must equal ``spec.n_nodes``.
    nodes:
        Node identifiers (any hashables); order fixes the deterministic
        iteration order of the run.
    sender:
        Which node is the sender.  Must be in *nodes*.
    sender_value:
        The sender's input value.  If the sender is faulty, its behaviour
        may override what is actually sent.
    behaviors:
        Map from faulty node id to its :class:`Behavior`.  Nodes absent from
        the map are fault-free.  The *number* of faulty nodes is not policed
        here — running with more than ``u`` faults is exactly how the
        violation experiments work.

    Notes
    -----
    The execution is deterministic given the behaviours; randomized
    behaviours must carry their own seeded RNG.
    """
    node_list = list(nodes)
    if len(set(node_list)) != len(node_list):
        raise ConfigurationError("duplicate node identifiers")
    if len(node_list) != spec.n_nodes:
        raise ConfigurationError(
            f"spec expects {spec.n_nodes} nodes, got {len(node_list)}"
        )
    if sender not in node_list:
        raise ConfigurationError(f"sender {sender!r} is not among the nodes")

    ctx = _Execution(spec.m, behaviors, transport)
    decisions = _byz(
        t=spec.recursion_depth,
        nodes=tuple(node_list),
        sender=sender,
        held_value=sender_value,
        path=(),
        ctx=ctx,
    )
    ctx.stats.rounds = spec.rounds
    return AgreementResult(
        decisions=decisions, sender=sender, sender_value=sender_value, stats=ctx.stats
    )


def _byz(
    t: int,
    nodes: Tuple[NodeId, ...],
    sender: NodeId,
    held_value: Value,
    path: Path,
    ctx: _Execution,
) -> Dict[NodeId, Value]:
    """One (sub-)invocation of BYZ(t, m); returns receiver decisions."""
    receivers = tuple(p for p in nodes if p != sender)
    if not receivers:
        # Degenerate single-node instance: agreement is vacuous.
        return {}
    n = len(nodes)
    threshold = n - 1 - ctx.threshold_m
    if threshold <= 0:
        raise ConfigurationError(
            f"BYZ recursion reached non-positive vote threshold: n={n}, "
            f"m={ctx.threshold_m} — the top-level node count is too small"
        )

    # Step 1: the sender transmits its value to every receiver.  A faulty
    # sender's behaviour may substitute anything, per destination.
    direct: Dict[NodeId, Value] = {
        r: ctx.transmit(path, sender, r, held_value) for r in receivers
    }

    if t <= 1:
        return _byz_base(receivers, sender, direct, path, threshold, ctx)

    # Step 2: each receiver j forwards its direct value via BYZ(t-1, m)
    # over the receiver set.  sub[j][i] is what receiver i concludes about
    # receiver j's direct value.
    sub_path = path + (sender,)
    sub: Dict[NodeId, Dict[NodeId, Value]] = {
        j: _byz(t - 1, receivers, j, direct[j], sub_path, ctx) for j in receivers
    }

    # Step 3: each receiver votes over its own direct value plus the n-2
    # sub-protocol outcomes.
    decisions: Dict[NodeId, Value] = {}
    for i in receivers:
        ballots = [direct[i] if j == i else sub[j][i] for j in receivers]
        ctx.stats.votes += 1
        decisions[i] = vote(threshold, ballots)
    return decisions


def _byz_base(
    receivers: Tuple[NodeId, ...],
    sender: NodeId,
    direct: Dict[NodeId, Value],
    path: Path,
    threshold: int,
    ctx: _Execution,
) -> Dict[NodeId, Value]:
    """BYZ(1, m): one echo round then the threshold vote."""
    echo_path = path + (sender,)
    echoes: Dict[Tuple[NodeId, NodeId], Value] = {}
    for j in receivers:
        for i in receivers:
            if i == j:
                continue
            echoes[(j, i)] = ctx.transmit(echo_path, j, i, direct[j])

    decisions: Dict[NodeId, Value] = {}
    for i in receivers:
        ballots = [direct[i] if j == i else echoes[(j, i)] for j in receivers]
        ctx.stats.votes += 1
        decisions[i] = vote(threshold, ballots)
    return decisions


def message_count(n_nodes: int, m: int) -> int:
    """Messages algorithm BYZ(m, m) exchanges with ``n_nodes`` nodes.

    Counts every point-to-point transmission, matching
    ``AgreementResult.stats.messages``.  Recurrence (for ``t >= 2``)::

        M(n, t) = (n - 1) + (n - 1) * M(n - 1, t - 1)
        M(n, 1) = (n - 1) + (n - 1) * (n - 2)

    The ``m = 0`` entry uses the ``t = 1`` structure.
    """
    if n_nodes < 2:
        return 0

    def rec(n: int, t: int) -> int:
        if t <= 1:
            return (n - 1) + (n - 1) * (n - 2)
        return (n - 1) + (n - 1) * rec(n - 1, t - 1)

    return rec(n_nodes, max(m, 1))
