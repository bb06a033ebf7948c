"""Exhaustive adversary search for small instances.

The Monte-Carlo harness samples adversaries; this module *enumerates* them.
For ``m = 1`` instances, algorithm BYZ is the two-round echo protocol, so a
deterministic adversary is fully described by:

* a faulty **sender**: one claimed value per receiver
  (``|D| ** (n-1)`` strategies over a value domain ``D``);
* a faulty **receiver**: one echoed claim per other receiver
  (``|D| ** (n-2)`` strategies).

Enumerating the full product over every fault placement gives a *complete*
verdict for the chosen domain: either no adversary within the fault budget
can break the contract (Theorem 1 for this instance, exhaustively
witnessed), or every violating strategy is produced (as happens one node
below the Theorem 2 bound).

A three-symbol domain ``{sender_value, other, V_d}`` is used by default:
with at most two colluding equivalence classes of lies mattering to any
threshold vote, additional distinct symbols only weaken the adversary.
(This is a search-space heuristic, not a proven reduction — callers can
pass a larger domain and pay the exponential price.)

The search size is guarded by ``max_profiles``; exceeding it raises
instead of silently truncating.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.core.behavior import Behavior, BehaviorMap, Path
from repro.core.byz import run_degradable_agreement
from repro.core.conditions import OutcomeReport, classify
from repro.core.scenario import node_ids
from repro.core.spec import DegradableSpec, sub_minimal_spec
from repro.core.values import DEFAULT, Value
from repro.exceptions import AnalysisError

NodeId = Hashable

#: A strategy maps each destination to the claim sent there.
Strategy = Tuple[Tuple[NodeId, Value], ...]


class _TableBehavior(Behavior):
    """Plays a fixed per-destination claim table at the echo context.

    For the sender the relevant context is the top-level send (``()``);
    for a receiver it is the direct-value relay (``(sender,)``).  These are
    the only contexts that exist in the m = 1 protocol.
    """

    def __init__(self, table: Dict[NodeId, Value]) -> None:
        self.table = dict(table)

    def send(self, path: Path, source: NodeId, destination: NodeId, honest_value: Value) -> Value:
        return self.table.get(destination, honest_value)


@dataclass
class ViolationWitness:
    faulty: Tuple[NodeId, ...]
    strategies: Dict[NodeId, Strategy]
    report: OutcomeReport


@dataclass
class SearchResult:
    spec: DegradableSpec
    domain: Tuple[Value, ...]
    profiles_checked: int = 0
    violations: List[ViolationWitness] = field(default_factory=list)

    @property
    def contract_unbreakable(self) -> bool:
        return not self.violations


def _strategies_for(
    node: NodeId, targets: Sequence[NodeId], domain: Sequence[Value]
) -> Iterator[Dict[NodeId, Value]]:
    for claims in itertools.product(domain, repeat=len(targets)):
        yield dict(zip(targets, claims))


def count_profiles(
    n_nodes: int, fault_sizes: Sequence[int], domain_size: int
) -> int:
    """Number of (fault set, strategy) profiles the search will visit."""
    from math import comb

    total = 0
    for f in fault_sizes:
        # Split by whether the sender is in the fault set.
        receiver_strategies = domain_size ** (n_nodes - 2)
        sender_strategies = domain_size ** (n_nodes - 1)
        # sender faulty: choose f-1 receivers among n-1
        if f >= 1:
            total += (
                comb(n_nodes - 1, f - 1)
                * sender_strategies
                * receiver_strategies ** (f - 1)
            )
        # sender fault-free: choose f receivers
        total += comb(n_nodes - 1, f) * receiver_strategies**f
    return total


def exhaustive_search(
    u: int,
    n_nodes: int,
    max_faults: Optional[int] = None,
    sender_value: Value = "alpha",
    other_value: Value = "beta",
    max_profiles: int = 2_000_000,
    stop_at_first: bool = False,
) -> SearchResult:
    """Enumerate every deterministic adversary for a 1/u instance.

    Parameters
    ----------
    u:
        The degraded-fault bound (``m`` is fixed at 1 — the instance whose
        strategy space is exactly enumerable).
    n_nodes:
        System size.  ``2 + u + 1`` is the Theorem 2 minimum; passing
        ``2 + u`` runs the search *below* the bound, where violations must
        (and do) appear.
    max_faults:
        Largest fault-set size to enumerate (default ``u``).
    max_profiles:
        Hard cap on the search size; exceeding it raises
        :class:`AnalysisError` rather than silently sampling.
    stop_at_first:
        Return as soon as one violation is found (used by the
        below-the-bound demonstrations).
    """
    m = 1
    if u < m:
        raise AnalysisError(f"u must be >= 1, got {u}")
    spec = (
        DegradableSpec(m=m, u=u, n_nodes=n_nodes)
        if n_nodes > 2 * m + u
        else sub_minimal_spec(m, u, n_nodes)
    )
    domain = (sender_value, other_value, DEFAULT)
    max_faults = u if max_faults is None else max_faults
    fault_sizes = list(range(1, max_faults + 1))
    predicted = count_profiles(n_nodes, fault_sizes, len(domain))
    if predicted > max_profiles:
        raise AnalysisError(
            f"search would visit {predicted} profiles (> cap {max_profiles}); "
            f"reduce n_nodes/max_faults or raise max_profiles"
        )

    nodes: List[NodeId] = node_ids(n_nodes)
    sender = nodes[0]
    receivers = nodes[1:]
    result = SearchResult(spec=spec, domain=domain)

    for f in fault_sizes:
        for faulty in itertools.combinations(nodes, f):
            spaces = []
            for node in faulty:
                if node == sender:
                    # The sender's only sends are the direct wave.
                    targets = [x for x in receivers]
                else:
                    # A receiver only ever echoes to the other receivers;
                    # claims towards the sender are never consulted.
                    targets = [x for x in receivers if x != node]
                spaces.append(list(_strategies_for(node, targets, domain)))
            for combo in itertools.product(*spaces):
                behaviors: BehaviorMap = {
                    node: _TableBehavior(table)
                    for node, table in zip(faulty, combo)
                }
                agreement = run_degradable_agreement(
                    spec, nodes, sender, sender_value, behaviors
                )
                report = classify(agreement, frozenset(faulty), spec)
                result.profiles_checked += 1
                if not report.satisfied:
                    result.violations.append(
                        ViolationWitness(
                            faulty=tuple(faulty),
                            strategies={
                                node: tuple(sorted(table.items(), key=lambda kv: str(kv[0])))
                                for node, table in zip(faulty, combo)
                            },
                            report=report,
                        )
                    )
                    if stop_at_first:
                        return result
    return result


def verify_instance_exhaustively(u: int) -> Tuple[SearchResult, SearchResult]:
    """The headline pair for a 1/u instance.

    Returns ``(at_bound, below_bound)``: the at-bound search must find **no**
    violating adversary; the below-bound search (one node fewer) must find
    one.  Together they witness both directions of Theorem 2 for the
    instance, exhaustively over the three-symbol domain.
    """
    at_bound = exhaustive_search(u, 2 + u + 1)
    below = exhaustive_search(u, 2 + u, stop_at_first=True)
    return at_bound, below
