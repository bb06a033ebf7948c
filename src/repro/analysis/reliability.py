"""Combinatorial reliability analysis (the Section 7 cost-effectiveness claim).

The paper argues degradable agreement is "a cost-effective approach for
tolerating a small number of Byzantine failures using forward recovery and
a large number of failures using backward recovery".  This module
quantifies that: given a per-node fault probability ``p`` over one mission
window, a system of ``N`` nodes running m/u-degradable agreement partitions
the probability mass into

* ``P(correct)``  — ``f <= m``: full agreement, forward recovery;
* ``P(safe)``     — ``m < f <= u``: degraded agreement, the external entity
  sees the correct value or the default (backward recovery / safe action);
* ``P(unsafe)``   — ``f > u``: no guarantee.

A classic Byzantine configuration is the ``m = u`` special case.  The
comparison functions show the trade: with a fixed node budget, lowering
``m`` by one buys two extra units of ``u``, converting "unsafe" mass into
"safe" mass at the cost of some "correct-with-forward-recovery" mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.core.bounds import configurations
from repro.exceptions import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - typing only; a mission imports channels
    from repro.channels.recovery import MissionStats


@dataclass(frozen=True)
class ReliabilityPoint:
    """Probability split for one (m, u, N) configuration."""

    m: int
    u: int
    n_nodes: int
    p_node: float
    p_correct: float
    p_safe_degraded: float
    p_unsafe: float

    @property
    def p_safe_total(self) -> float:
        """Mass where the system is guaranteed not to act on a wrong value."""
        return self.p_correct + self.p_safe_degraded

    def as_row(self) -> List[object]:
        return [
            self.m,
            self.u,
            self.n_nodes,
            self.p_node,
            round(self.p_correct, 9),
            round(self.p_safe_degraded, 9),
            round(self.p_unsafe, 9),
        ]


def fault_count_pmf(n_nodes: int, p_node: float) -> List[float]:
    """Binomial pmf of the number of faulty nodes."""
    if not 0.0 <= p_node <= 1.0:
        raise AnalysisError(f"p_node must be in [0, 1], got {p_node}")
    if n_nodes < 1:
        raise AnalysisError(f"need at least one node, got {n_nodes}")
    return [
        comb(n_nodes, f) * (p_node**f) * ((1.0 - p_node) ** (n_nodes - f))
        for f in range(n_nodes + 1)
    ]


def reliability(m: int, u: int, n_nodes: int, p_node: float) -> ReliabilityPoint:
    """Probability split for one configuration (faults i.i.d. per node)."""
    if u < m or m < 0:
        raise AnalysisError(f"invalid parameters m={m}, u={u}")
    if n_nodes < 2 * m + u + 1:
        raise AnalysisError(
            f"configuration infeasible: {n_nodes} nodes < {2 * m + u + 1}"
        )
    pmf = fault_count_pmf(n_nodes, p_node)
    p_correct = sum(pmf[: m + 1])
    p_safe = sum(pmf[m + 1 : u + 1])
    p_unsafe = sum(pmf[u + 1 :])
    return ReliabilityPoint(
        m=m,
        u=u,
        n_nodes=n_nodes,
        p_node=p_node,
        p_correct=p_correct,
        p_safe_degraded=p_safe,
        p_unsafe=p_unsafe,
    )


def compare_configurations(
    n_nodes: int, p_node: float
) -> List[ReliabilityPoint]:
    """All maximal (m, u) configurations of a node budget, most-Byzantine first.

    For 7 nodes this is the paper's own example: 2/2, 1/4 and 0/6.
    """
    points = [
        reliability(m, u, n_nodes, p_node)
        for m, u in sorted(configurations(n_nodes), reverse=True)
    ]
    return points


def degradable_vs_byzantine(
    m: int, u: int, p_node: float
) -> dict:
    """Head-to-head: minimal degradable system vs alternatives.

    Compares three designs at their *minimal* node counts:

    * ``byzantine_m``   — classic agreement tolerating ``m`` (3m+1 nodes);
    * ``degradable``    — m/u-degradable (2m+u+1 nodes);
    * ``byzantine_u``   — classic agreement tolerating ``u`` (3u+1 nodes),
      the brute-force way to survive ``u`` faults.

    The paper's claim reads off the numbers: the degradable design gets
    safety against ``u`` faults for ``2m + u + 1`` nodes instead of
    ``3u + 1`` — "the increase in resource requirements is minimal"
    relative to the 3m+1 baseline.
    """
    byz_m = reliability(m, m, 3 * m + 1, p_node)
    degr = reliability(m, u, 2 * m + u + 1, p_node)
    byz_u = reliability(u, u, 3 * u + 1, p_node)
    return {
        "byzantine_m": byz_m,
        "degradable": degr,
        "byzantine_u": byz_u,
        "extra_nodes_degradable": degr.n_nodes - byz_m.n_nodes,
        "extra_nodes_byzantine_u": byz_u.n_nodes - byz_m.n_nodes,
    }


def fly_mission(
    steps: int,
    fault_probability: float,
    seed: int,
    clear_probability: float = 0.5,
) -> Tuple["MissionStats", bool]:
    """Fly the Figure 1(b) channel system (1/2-degradable, 4 channels) for
    *steps* steps of transient faults; returns ``(stats, safe)``, safe when
    no step acted on a wrong value."""
    from repro.channels.recovery import MissionSimulator
    from repro.channels.system import DegradableChannelSystem

    system = DegradableChannelSystem(m=1, u=2, computation=lambda v: v * 2)
    stats = MissionSimulator(
        system,
        fault_probability=fault_probability,
        clear_probability=clear_probability,
        seed=seed,
    ).run(steps, sender_value=21)
    return stats, stats.unsafe == 0


def heterogeneous_fault_pmf(p_nodes: Sequence[float]) -> List[float]:
    """Poisson-binomial pmf of the fault count with per-node probabilities.

    Real channel systems are not i.i.d. — a sensor is usually far less
    reliable than a hardened channel, and Section 6.2's whole argument
    rests on clocks failing less often than processors.  Computed by the
    standard O(n^2) dynamic program.
    """
    if not p_nodes:
        raise AnalysisError("need at least one node probability")
    for p in p_nodes:
        if not 0.0 <= p <= 1.0:
            raise AnalysisError(f"probability out of range: {p}")
    pmf = [1.0]
    for p in p_nodes:
        nxt = [0.0] * (len(pmf) + 1)
        for f, mass in enumerate(pmf):
            nxt[f] += mass * (1.0 - p)
            nxt[f + 1] += mass * p
        pmf = nxt
    return pmf


def heterogeneous_reliability(
    m: int, u: int, p_nodes: Sequence[float]
) -> ReliabilityPoint:
    """Reliability split with per-node fault probabilities.

    ``len(p_nodes)`` is the node count; feasibility is checked against it.
    The returned point's ``p_node`` field carries the *mean* probability
    for display purposes.
    """
    n_nodes = len(p_nodes)
    if u < m or m < 0:
        raise AnalysisError(f"invalid parameters m={m}, u={u}")
    if n_nodes < 2 * m + u + 1:
        raise AnalysisError(
            f"configuration infeasible: {n_nodes} nodes < {2 * m + u + 1}"
        )
    pmf = heterogeneous_fault_pmf(p_nodes)
    return ReliabilityPoint(
        m=m,
        u=u,
        n_nodes=n_nodes,
        p_node=sum(p_nodes) / n_nodes,
        p_correct=sum(pmf[: m + 1]),
        p_safe_degraded=sum(pmf[m + 1 : u + 1]),
        p_unsafe=sum(pmf[u + 1 :]),
    )


def pareto_configurations(
    n_nodes: int, p_node: float
) -> List[ReliabilityPoint]:
    """Pareto-optimal (m, u) configurations of a node budget.

    A configuration dominates another when it is at least as good on both
    ``P(correct)`` (forward-recovery mass) and ``P(unsafe)`` (safety) and
    strictly better on one.  All maximal configurations of a budget are
    mutually non-dominated in the i.i.d. model (more ``m`` buys more
    correct mass, more ``u`` buys less unsafe mass), so this mostly guards
    against passing non-maximal configurations — but it is the right
    primitive for heterogeneous or constrained variants.
    """
    points = compare_configurations(n_nodes, p_node)
    pareto: List[ReliabilityPoint] = []
    for point in points:
        dominated = any(
            other.p_correct >= point.p_correct
            and other.p_unsafe <= point.p_unsafe
            and (
                other.p_correct > point.p_correct
                or other.p_unsafe < point.p_unsafe
            )
            for other in points
            if other is not point
        )
        if not dominated:
            pareto.append(point)
    return pareto
