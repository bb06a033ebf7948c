"""Interactive consistency (Pease, Shostak & Lamport 1980).

Every node holds a private value; after the protocol, every fault-free node
holds the *same vector* of ``N`` values, and the entry for each fault-free
node j equals j's private value.

The paper contrasts degradable agreement with Bhandari's impossibility
result, which applies to interactive consistency: IC-style algorithms that
tolerate ``(N-1)/3`` faults cannot degrade gracefully beyond ``N/3``, while
m/u-degradable agreement (a *single-sender* problem) can, for
``m < (N-1)/3``.  This module lets the experiments exhibit that structural
difference: we build IC from ``N`` parallel single-sender agreements, any
:data:`AgreementRunner` as the building block (:func:`ic_runner_byz` for
degradable BYZ).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional, Sequence

from repro.core.behavior import BehaviorMap
from repro.core.byz import AgreementResult, run_degradable_agreement
from repro.core.spec import DegradableSpec
from repro.core.values import Value
from repro.exceptions import ConfigurationError

NodeId = Hashable

#: ``vectors[i][j]`` = the value node i concluded node j sent.
ConsistencyVectors = Dict[NodeId, Dict[NodeId, Value]]

AgreementRunner = Callable[[Sequence[NodeId], NodeId, Value], AgreementResult]


def run_interactive_consistency(
    nodes: Sequence[NodeId],
    private_values: Dict[NodeId, Value],
    runner: AgreementRunner,
) -> ConsistencyVectors:
    """Run one single-sender agreement per node and assemble the vectors.

    Parameters
    ----------
    nodes:
        All node identifiers.
    private_values:
        Each node's private input (one entry per node).
    runner:
        Callable executing one single-sender agreement instance — typically
        a partial application of :func:`ic_runner_byz`.
    """
    node_list = list(nodes)
    missing = [p for p in node_list if p not in private_values]
    if missing:
        raise ConfigurationError(f"missing private values for nodes {missing!r}")

    vectors: ConsistencyVectors = {p: {} for p in node_list}
    for sender in node_list:
        result = runner(node_list, sender, private_values[sender])
        for node in node_list:
            vectors[node][sender] = result.decision_of(node)
    return vectors


def ic_runner_byz(
    spec: DegradableSpec, behaviors: Optional[BehaviorMap] = None
) -> AgreementRunner:
    """An IC building block that uses m/u-degradable agreement per sender."""

    def run(nodes: Sequence[NodeId], sender: NodeId, value: Value) -> AgreementResult:
        return run_degradable_agreement(spec, nodes, sender, value, behaviors)

    return run


def vectors_agree(
    vectors: ConsistencyVectors, fault_free: Sequence[NodeId]
) -> bool:
    """True iff every fault-free node holds an identical vector."""
    nodes = list(fault_free)
    if not nodes:
        return True
    reference = vectors[nodes[0]]
    return all(vectors[p] == reference for p in nodes[1:])


def vectors_valid(
    vectors: ConsistencyVectors,
    private_values: Dict[NodeId, Value],
    fault_free: Sequence[NodeId],
) -> bool:
    """True iff fault-free vector entries match fault-free private values."""
    return all(
        vectors[i][j] == private_values[j] for i in fault_free for j in fault_free
    )
