"""Message/round complexity of the agreement algorithms (experiment E6).

The paper presents algorithm BYZ without claiming efficiency ("no attempt
is made here to present an efficient algorithm") — it has the same
exponential message pattern as Lamport's OM.  This module provides the
closed-form counts, cross-checks them against measured executions, and
builds the comparison grid the E6 benchmark prints:

* BYZ(m, m) with ``N = 2m + u + 1`` nodes — ``m + 1`` rounds (2 for m=0);
* OM(m) with ``N = 3m + 1`` nodes — ``m + 1`` rounds;
* Crusader with ``N = 3f + 1`` nodes — always 2 rounds.

The interesting economics: for a target of *surviving* ``u`` faults
safely, degradable agreement runs BYZ(m, m) on ``2m + u + 1`` nodes, which
is far cheaper than OM(u) on ``3u + 1`` nodes because the recursion depth
is ``m``, not ``u``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.byz import message_count
from repro.core.crusader import crusader_message_count
from repro.core.oral_messages import om_message_count
from repro.core.signed import sm_message_count
from repro.core.spec import DegradableSpec
from repro.exceptions import AnalysisError


@dataclass(frozen=True)
class ComplexityPoint:
    algorithm: str
    m: int
    u: int
    n_nodes: int
    rounds: int
    messages: int

    def as_row(self) -> List[object]:
        return [self.algorithm, self.m, self.u, self.n_nodes, self.rounds, self.messages]


def byz_complexity(m: int, u: int, n_nodes: Optional[int] = None) -> ComplexityPoint:
    """Cost of BYZ(m, m) at minimal (or given) node count."""
    n_nodes = n_nodes if n_nodes is not None else 2 * m + u + 1
    spec = DegradableSpec(m=m, u=u, n_nodes=n_nodes)
    return ComplexityPoint(
        algorithm="BYZ",
        m=m,
        u=u,
        n_nodes=n_nodes,
        rounds=spec.rounds,
        messages=message_count(n_nodes, m),
    )


def om_complexity(m: int, n_nodes: Optional[int] = None) -> ComplexityPoint:
    """Cost of OM(m) at minimal (or given) node count."""
    if m < 0:
        raise AnalysisError(f"m must be >= 0, got {m}")
    n_nodes = n_nodes if n_nodes is not None else 3 * m + 1
    return ComplexityPoint(
        algorithm="OM",
        m=m,
        u=m,
        n_nodes=n_nodes,
        rounds=m + 1,
        messages=om_message_count(n_nodes, m),
    )


def crusader_complexity(f: int, n_nodes: Optional[int] = None) -> ComplexityPoint:
    """Cost of Crusader agreement at minimal (or given) node count."""
    if f < 0:
        raise AnalysisError(f"f must be >= 0, got {f}")
    n_nodes = n_nodes if n_nodes is not None else 3 * f + 1
    return ComplexityPoint(
        algorithm="Crusader",
        m=f,
        u=f,
        n_nodes=n_nodes,
        rounds=2,
        messages=crusader_message_count(n_nodes),
    )


def sm_complexity(m: int, n_nodes: Optional[int] = None) -> ComplexityPoint:
    """Cost of signed-messages SM(m) at minimal (or given) node count.

    Signatures collapse the node requirement to ``m + 2`` and the
    fault-free message pattern to the quadratic relay wave — the price is
    the authentication infrastructure, which the paper's target systems
    avoid (hence the oral-message setting of degradable agreement).
    """
    if m < 0:
        raise AnalysisError(f"m must be >= 0, got {m}")
    n_nodes = n_nodes if n_nodes is not None else m + 2
    return ComplexityPoint(
        algorithm="SM",
        m=m,
        u=m,
        n_nodes=n_nodes,
        rounds=m + 1,
        messages=sm_message_count(n_nodes, m),
    )


def survive_u_comparison(u_values: Sequence[int]) -> List[List[ComplexityPoint]]:
    """For each target ``u``: ways to survive ``u`` faults *safely*.

    Compares OM(u) on ``3u + 1`` nodes against m/u-degradable BYZ(m, m) on
    ``2m + u + 1`` nodes for each ``1 <= m <= u`` — the cheaper rows are
    the degradable configurations with small ``m``.
    """
    grid: List[List[ComplexityPoint]] = []
    for u in u_values:
        if u < 1:
            raise AnalysisError(f"u must be >= 1, got {u}")
        row = [om_complexity(u)]
        row.extend(byz_complexity(m, u) for m in range(1, u + 1))
        grid.append(row)
    return grid


def survive_u_costs(u: int) -> Tuple[List[ComplexityPoint], bool]:
    """OM(u) and BYZ(m, u) for ``1 <= m <= u``, and whether BYZ(1, u) is
    cheaper than OM(u) on nodes, rounds and messages (it is for u >= 2)."""
    points = survive_u_comparison([u])[0]
    om, cheap = points[0], points[1]
    return points, (
        cheap.messages < om.messages
        and cheap.rounds < om.rounds
        and cheap.n_nodes < om.n_nodes
    )
