"""Lower-bound scenario machinery (Section 5, Theorems 2 and 3).

Theorem 2 (``N >= 2m + u + 1`` nodes) is proved in the paper by exhibiting
three fault scenarios — Figure 2(a)/(b)/(c) for the 4-node case, lifted to
general parameters by group simulation — such that:

* certain fault-free nodes have *identical local views* in consecutive
  scenarios (so a deterministic algorithm must decide identically), and
* the chained decisions contradict one of the conditions D.1/D.2/D.3.

This module builds exactly those scenarios as behaviour maps and runs them
against algorithm BYZ.  At ``N = 2m + u`` the scenario triple therefore
must make at least one condition fail, while at ``N = 2m + u + 1`` all
three scenarios pass.

Generalized construction (``N = 2m + u``; for the proof sketch see
DESIGN.md and the module tests):

* groups: ``S_g`` = sender + ``m - 1`` extras, ``A_g`` = ``m`` nodes,
  ``B_g`` = ``m`` nodes, ``C_g`` = ``N - 3m = u - m`` nodes;
* scenario (a): ``A_g`` faulty (``f = m``); honest sender sends ``beta``;
  ``A_g`` members pretend their direct value was ``alpha``;
* scenario (b): ``S_g`` faulty (``f = m``); the sender sends ``alpha`` to
  ``A_g`` and ``beta`` to everyone else; ``S_g`` extras claim ``alpha``
  towards ``A_g`` and ``beta`` towards the rest;
* scenario (c): ``B_g + C_g`` faulty (``f = u``); honest sender sends
  ``alpha``; the faulty nodes pretend their direct value was ``beta``.

Indistinguishability: ``B_g``/``C_g`` members see identical message streams
in (a) and (b); ``A_g`` members see identical streams in (b) and (c).

Theorem 3 (connectivity ``>= m + u + 1``) is likewise realized: we place a
vertex cut ``F = F1 + F2`` (``|F1| = m``, ``|F2| = u``) between the sender
side ``G1`` and the far side ``G2``, and build the two scenarios of the
proof — ``F1`` faulty corrupting cross-cut traffic vs ``F2`` faulty doing
the same — over the disjoint-path relay transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Hashable, List, Optional, Tuple

from repro.core.behavior import (
    BehaviorMap,
    ChainLiar,
    ChainTwoFaced,
    LieAboutSender,
    TwoFacedBehavior,
)  # LieAboutSender: used by the Theorem 3 cut scenarios below
from repro.core.byz import run_degradable_agreement
from repro.core.conditions import OutcomeReport, classify
from repro.core.spec import DegradableSpec, sub_minimal_spec
from repro.core.values import Value
from repro.exceptions import AnalysisError
from repro.sim.network import Topology
from repro.sim.routing import HopCorruptor, RoutedTransport

NodeId = Hashable


@dataclass
class Scenario:
    """One choreographed fault scenario."""

    name: str
    sender_value: Value
    faulty: frozenset
    behaviors: BehaviorMap
    description: str = ""


@dataclass
class ScenarioOutcome:
    scenario: Scenario
    report: OutcomeReport

    @property
    def satisfied(self) -> bool:
        return self.report.satisfied


@dataclass
class TripleResult:
    """Outcome of running the Theorem 2 scenario triple."""

    spec: DegradableSpec
    outcomes: List[ScenarioOutcome] = field(default_factory=list)

    @property
    def all_satisfied(self) -> bool:
        return all(o.satisfied for o in self.outcomes)

    @property
    def violated(self) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if not o.satisfied]

    def summary(self) -> str:
        lines = [f"scenario triple for {self.spec}"]
        for outcome in self.outcomes:
            status = "OK " if outcome.satisfied else "FAIL"
            lines.append(
                f"  [{status}] {outcome.scenario.name}: "
                f"{'; '.join(outcome.report.violations) or 'conditions hold'}"
            )
        return "\n".join(lines)


@dataclass
class NodeGroups:
    """The group partition used by the generalized Theorem 2 construction."""

    sender: NodeId
    sender_extras: Tuple[NodeId, ...]
    group_a: Tuple[NodeId, ...]
    group_b: Tuple[NodeId, ...]
    group_c: Tuple[NodeId, ...]

    @property
    def all_nodes(self) -> List[NodeId]:
        return (
            [self.sender]
            + list(self.sender_extras)
            + list(self.group_a)
            + list(self.group_b)
            + list(self.group_c)
        )


def make_groups(m: int, u: int, n_nodes: int) -> NodeGroups:
    """Partition ``n_nodes`` ids into the Theorem 2 groups for (m, u).

    Requires ``m >= 1`` and ``n_nodes >= 3m`` (below that even the group
    shapes do not exist).  ``C_g`` absorbs all slack beyond ``3m``.
    """
    if m < 1:
        raise AnalysisError("the scenario construction needs m >= 1")
    if u < m:
        raise AnalysisError(f"u must satisfy u >= m, got m={m}, u={u}")
    if n_nodes < 3 * m:
        raise AnalysisError(
            f"need at least 3m = {3 * m} nodes for the group construction, "
            f"got {n_nodes}"
        )
    ids: List[NodeId] = ["S"] + [f"n{k}" for k in range(1, n_nodes)]
    cursor = 1
    sender_extras = tuple(ids[cursor : cursor + m - 1])
    cursor += m - 1
    group_a = tuple(ids[cursor : cursor + m])
    cursor += m
    group_b = tuple(ids[cursor : cursor + m])
    cursor += m
    group_c = tuple(ids[cursor:])
    return NodeGroups(
        sender=ids[0],
        sender_extras=sender_extras,
        group_a=group_a,
        group_b=group_b,
        group_c=group_c,
    )


def theorem2_scenarios(
    groups: NodeGroups,
    alpha: Value = "alpha",
    beta: Value = "beta",
) -> List[Scenario]:
    """The three Figure 2 scenarios for an arbitrary group partition."""
    if alpha == beta:
        raise AnalysisError("alpha and beta must be distinct values")
    sender = groups.sender
    extras = groups.sender_extras

    # Scenario (a): the A-group pretends the whole sender group said alpha.
    # "Sender-group chain" contexts cover both their own direct value and
    # their echoes of the (honest) sender-extras' relays, so that honest
    # nodes see exactly what scenario (b) would show them.
    scenario_a = Scenario(
        name="(a) A-group faulty",
        sender_value=beta,
        faulty=frozenset(groups.group_a),
        behaviors={
            node: ChainLiar(alpha, sender, extras) for node in groups.group_a
        },
        description=(
            "honest sender sends beta; the A-group pretends the sender "
            "group told it alpha"
        ),
    )

    # Scenario (b): the sender group is faulty and two-faced — the A-group
    # is shown an alpha-world, everyone else a beta-world.
    faces_b: Dict[NodeId, Value] = {node: alpha for node in groups.group_a}
    for node in extras + groups.group_b + groups.group_c:
        faces_b[node] = beta
    behaviors_b: BehaviorMap = {sender: TwoFacedBehavior(faces_b)}
    for extra in extras:
        behaviors_b[extra] = ChainTwoFaced(faces_b, sender, extras)
    scenario_b = Scenario(
        name="(b) sender group faulty",
        sender_value=beta,
        faulty=frozenset({sender, *extras}),
        behaviors=behaviors_b,
        description=(
            "faulty sender group presents alpha to the A-group and beta to "
            "everyone else"
        ),
    )

    # Scenario (c): the B and C groups pretend the sender group said beta.
    faulty_c = frozenset(groups.group_b) | frozenset(groups.group_c)
    scenario_c = Scenario(
        name="(c) B+C groups faulty",
        sender_value=alpha,
        faulty=faulty_c,
        behaviors={node: ChainLiar(beta, sender, extras) for node in faulty_c},
        description=(
            "honest sender sends alpha; the B and C groups pretend the "
            "sender group told them beta"
        ),
    )

    return [scenario_a, scenario_b, scenario_c]


def run_scenario_triple(
    m: int,
    u: int,
    n_nodes: int,
    alpha: Value = "alpha",
    beta: Value = "beta",
) -> TripleResult:
    """Run the Theorem 2 triple against BYZ at the given node count.

    With ``n_nodes == 2m + u`` a correct deterministic protocol *must* fail
    at least one scenario (that is the theorem); with
    ``n_nodes == 2m + u + 1`` algorithm BYZ passes all three.
    """
    if n_nodes > 2 * m + u:
        spec = DegradableSpec(m=m, u=u, n_nodes=n_nodes)
    else:
        spec = sub_minimal_spec(m=m, u=u, n_nodes=n_nodes)
    groups = make_groups(m, u, n_nodes)
    scenarios = theorem2_scenarios(groups, alpha=alpha, beta=beta)
    result = TripleResult(spec=spec)
    for scenario in scenarios:
        agreement = run_degradable_agreement(
            spec,
            groups.all_nodes,
            groups.sender,
            scenario.sender_value,
            scenario.behaviors,
        )
        report = classify(agreement, scenario.faulty, spec)
        result.outcomes.append(ScenarioOutcome(scenario=scenario, report=report))
    return result


def theorem2_case(m: int, u: int) -> Tuple[TripleResult, TripleResult, bool]:
    """The Theorem 2 triple one node below the bound and at it.

    Returns ``(below, at, witnessed)``: the theorem is witnessed when the
    triple breaks at ``N = 2m + u`` and holds at ``N = 2m + u + 1``.
    """
    below = run_scenario_triple(m, u, 2 * m + u)
    at = run_scenario_triple(m, u, 2 * m + u + 1)
    return below, at, not below.all_satisfied and at.all_satisfied


# ----------------------------------------------------------------------
# Theorem 3: connectivity bound
# ----------------------------------------------------------------------
@dataclass
class ConnectivityScenarioResult:
    """Outcome of the Theorem 3 cut-set experiment at one connectivity."""

    connectivity: int
    m: int
    u: int
    #: scenario "F1 faulty" (f = m, regime byzantine)
    f1_report: OutcomeReport
    #: scenario "F2 faulty" (f = u, regime degraded)
    f2_report: OutcomeReport

    @property
    def both_satisfied(self) -> bool:
        return self.f1_report.satisfied and self.f2_report.satisfied


def connectivity_scenarios(
    m: int,
    u: int,
    connectivity: int,
    n_nodes: Optional[int] = None,
    alpha: Value = "alpha",
    beta: Value = "beta",
) -> ConnectivityScenarioResult:
    """Run the Theorem 3 scenario pair at the given vertex connectivity.

    The topology is a Harary graph with the requested connectivity; the
    relay transport uses ``connectivity`` disjoint paths and the
    ``u + 1``-copy acceptance rule.  Faulty cut nodes corrupt every copy
    they forward to carry *beta*.

    At ``connectivity = m + u + 1`` both scenarios satisfy their respective
    conditions; at ``connectivity = m + u`` at least one fails.
    """
    if connectivity < 2 * m + 1:
        raise AnalysisError(
            f"connectivity below 2m+1={2 * m + 1} cannot even support "
            f"Byzantine agreement with m={m}"
        )
    n_nodes = n_nodes or max(2 * m + u + 1, connectivity + 2)
    spec = (
        DegradableSpec(m=m, u=u, n_nodes=n_nodes)
        if n_nodes > 2 * m + u
        else sub_minimal_spec(m, u, n_nodes)
    )
    nodes = [f"p{k}" for k in range(n_nodes)]
    topology = Topology.k_connected_harary(nodes, connectivity)
    sender = nodes[0]

    def run_with_cut_faults(faulty: AbstractSet[NodeId]) -> OutcomeReport:
        corruptors: Dict[NodeId, HopCorruptor] = {
            node: _corrupt_everything(beta) for node in faulty
        }
        transport = RoutedTransport(
            topology,
            n_paths=connectivity,
            accept_threshold=u + 1,
            hop_corruptors=corruptors,
        )
        behaviors: BehaviorMap = {
            node: LieAboutSender(beta, sender) for node in faulty
        }
        result = run_degradable_agreement(
            spec, nodes, sender, alpha, behaviors, transport=transport
        )
        return classify(result, frozenset(faulty), spec)

    # The cut: neighbours of some non-sender node, split into F1 (m nodes)
    # and F2 (u nodes).  On a Harary graph of connectivity k, any node's
    # neighbourhood contains a minimum cut; we take the sender's neighbours
    # to maximize damage to outbound traffic.
    neighbours = sorted(topology.neighbors(sender), key=str)
    if len(neighbours) < m + u:
        raise AnalysisError(
            f"sender degree {len(neighbours)} too small to host F1+F2 "
            f"({m}+{u} nodes); increase connectivity or node count"
        )
    f1 = frozenset(neighbours[:m])
    f2 = frozenset(neighbours[m : m + u])

    return ConnectivityScenarioResult(
        connectivity=connectivity,
        m=m,
        u=u,
        f1_report=run_with_cut_faults(f1),
        f2_report=run_with_cut_faults(f2),
    )


def theorem3_case(
    m: int, u: int
) -> Tuple[ConnectivityScenarioResult, ConnectivityScenarioResult, bool]:
    """The Theorem 3 pair one below connectivity ``m + u + 1`` and at it.

    Returns ``(below, at, witnessed)``: the theorem is witnessed when the
    pair holds at ``k = m + u + 1`` and breaks at ``k = m + u``.
    """
    if m < 1:
        # At m = 0 the below-bound relay would have u paths and a u + 1
        # acceptance rule: no pair exists to run.
        raise AnalysisError(f"the Theorem 3 scenario pair needs m >= 1, got m={m}")
    below = connectivity_scenarios(m, u, m + u)
    at = connectivity_scenarios(m, u, m + u + 1)
    return below, at, at.both_satisfied and not below.both_satisfied


def _corrupt_everything(forged: Value) -> HopCorruptor:
    def corrupt(hop: NodeId, prev: NodeId, nxt: NodeId, value: Value) -> Value:
        return forged

    return corrupt
