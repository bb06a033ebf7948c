"""Degradable interactive consistency (extension of Section 2's discussion).

The paper contrasts its single-sender problem with interactive consistency
(IC) and Bhandari's impossibility result for IC-style algorithms beyond
``N/3`` faults.  The natural question the paper leaves implicit: what *do*
you get if you build IC from m/u-degradable agreement?  This module gives
that construction a name and a contract, and the tests/benchmarks verify
it:

**m/u-degradable interactive consistency.**  Every node ends with a vector
of ``N`` entries.  With ``f`` faulty nodes:

* (V.1) ``f <= m``: all fault-free nodes hold the *same* vector, whose
  entry for every fault-free node j equals j's private value (classic IC);
* (V.2) ``m < f <= u``: for every sender j, the fault-free nodes' entries
  for j form at most two classes, one of which is ``V_d``; for fault-free
  j the non-default class equals j's private value.  Vectors are therefore
  pairwise *compatible* — where two fault-free nodes' entries differ, at
  least one of them is ``V_d`` — though no longer necessarily identical.

Compatibility is exactly the property that keeps downstream vector
consumers (voters, state-machine inputs) safe: no fault-free node ever
acts on a *fabricated* entry for a fault-free peer.  Full identical-vector
IC beyond ``N/3`` remains impossible (Bhandari), and V.2 is the degradable
analogue this library contributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Hashable, List, Optional, Sequence

from repro.core.behavior import BehaviorMap
from repro.core.interactive_consistency import (
    ic_runner_byz,
    run_interactive_consistency,
    vectors_agree,
    vectors_valid,
)
from repro.core.spec import DegradableSpec
from repro.core.values import DEFAULT, Value, is_default

NodeId = Hashable

#: ``vectors[i][j]`` = node i's entry for sender j.
Vectors = Dict[NodeId, Dict[NodeId, Value]]


@dataclass
class VectorReport:
    """Classification of a degradable-IC outcome."""

    spec: DegradableSpec
    vectors: Vectors
    private_values: Dict[NodeId, Value]
    faulty: frozenset
    regime: str
    #: V.1 — identical, valid vectors (meaningful in the byzantine regime).
    identical: bool
    valid_entries: bool
    #: V.2 — pairwise compatibility + per-sender two-class property.
    compatible: bool
    per_sender_two_class: bool
    satisfied: bool
    violations: List[str] = field(default_factory=list)


def run_degradable_interactive_consistency(
    spec: DegradableSpec,
    nodes: Sequence[NodeId],
    private_values: Dict[NodeId, Value],
    behaviors: Optional[BehaviorMap] = None,
) -> Vectors:
    """One m/u-degradable agreement per sender; assemble all vectors."""
    return run_interactive_consistency(
        nodes, private_values, ic_runner_byz(spec, behaviors)
    )


def classify_vectors(
    spec: DegradableSpec,
    vectors: Vectors,
    private_values: Dict[NodeId, Value],
    faulty: AbstractSet[NodeId],
) -> VectorReport:
    """Check conditions V.1 / V.2 for the actual fault count."""
    faulty = frozenset(faulty)
    fault_free = [p for p in vectors if p not in faulty]
    regime = spec.guarantee_for(len(faulty))

    identical = vectors_agree(vectors, fault_free)
    valid_entries = vectors_valid(vectors, private_values, fault_free)
    compatible = _compatible(vectors, fault_free)
    per_sender = _per_sender_two_class(
        vectors, private_values, fault_free, faulty
    )

    violations: List[str] = []
    if regime == "byzantine":
        if not identical:
            violations.append(
                "V.1 violated: fault-free vectors differ with f <= m"
            )
        if not valid_entries:
            violations.append(
                "V.1 violated: a fault-free sender's entry is wrong"
            )
    elif regime == "degraded":
        if not compatible:
            violations.append(
                "V.2 violated: two fault-free nodes hold conflicting "
                "non-default entries"
            )
        if not per_sender:
            violations.append(
                "V.2 violated: some sender's entries exceed two classes or "
                "fabricate a fault-free sender's value"
            )
    return VectorReport(
        spec=spec,
        vectors=vectors,
        private_values=dict(private_values),
        faulty=faulty,
        regime=regime,
        identical=identical,
        valid_entries=valid_entries,
        compatible=compatible,
        per_sender_two_class=per_sender,
        satisfied=not violations,
        violations=violations,
    )


def _compatible(vectors: Vectors, fault_free: List[NodeId]) -> bool:
    """Where two fault-free vectors differ, at least one entry is V_d."""
    for idx, i in enumerate(fault_free):
        for i2 in fault_free[idx + 1 :]:
            for sender in vectors[i]:
                a, b = vectors[i][sender], vectors[i2][sender]
                if a != b and not (is_default(a) or is_default(b)):
                    return False
    return True


def _per_sender_two_class(
    vectors: Vectors,
    private_values: Dict[NodeId, Value],
    fault_free: List[NodeId],
    faulty: frozenset,
) -> bool:
    senders = list(vectors[fault_free[0]]) if fault_free else []
    for sender in senders:
        entries = [vectors[i][sender] for i in fault_free]
        non_default = {e for e in entries if not is_default(e)}
        if len(non_default) > 1:
            return False
        if sender not in faulty and non_default:
            if non_default != {private_values[sender]}:
                return False
    return True


def compatible_merge(vectors: Vectors, fault_free: Sequence[NodeId]) -> Dict[NodeId, Value]:
    """Merge compatible vectors: the non-default entry where any node has
    one, ``V_d`` where all agree on the default.

    Only meaningful after :func:`classify_vectors` reported compatibility —
    the merge of compatible vectors is well-defined and equals what a
    hypothetical omniscient-but-honest observer would assemble.
    """
    merged: Dict[NodeId, Value] = {}
    for node in fault_free:
        for sender, value in vectors[node].items():
            current = merged.get(sender, DEFAULT)
            if is_default(current) and not is_default(value):
                merged[sender] = value
            elif sender not in merged:
                merged[sender] = value
    return merged
