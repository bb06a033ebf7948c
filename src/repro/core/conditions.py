"""Outcome classification against the paper's agreement conditions.

Given one protocol execution (decisions of every receiver, the fault set and
the spec), this module determines which of the paper's conditions hold:

* **D.1** — sender fault-free: every fault-free receiver decided the
  sender's value.
* **D.2** — sender faulty: every fault-free receiver decided one identical
  value.
* **D.3** — sender fault-free: every fault-free receiver decided either the
  sender's value or ``V_d`` (at most two classes, one of them default).
* **D.4** — sender faulty: there is a single value ``x`` such that every
  fault-free receiver decided either ``x`` or ``V_d``.

and whether the execution *satisfies the m/u-degradable agreement contract*
for its actual fault count: D.1/D.2 must hold when ``f <= m``, D.3/D.4 when
``m < f <= u``, and nothing is promised beyond ``u``.

The classifier also reports the structural *shape* of the outcome
(:class:`OutcomeShape`), which the experiments use to show graceful
degradation: full agreement, two-class degradation, or genuine divergence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Hashable, List, Optional, Tuple

from repro._slots import slotted
from repro.core.byz import AgreementResult
from repro.core.spec import DegradableSpec
from repro.core.values import DEFAULT, Value, distinct_non_default

NodeId = Hashable


class OutcomeShape(enum.Enum):
    """Structural shape of the fault-free receivers' decisions."""

    #: Every fault-free receiver decided the same non-default value.
    UNANIMOUS_VALUE = "unanimous-value"
    #: Every fault-free receiver decided ``V_d``.
    UNANIMOUS_DEFAULT = "unanimous-default"
    #: Exactly two classes: one non-default value and ``V_d``.
    TWO_CLASS_WITH_DEFAULT = "two-class-with-default"
    #: Two or more distinct non-default values — agreement has broken down.
    DIVERGENT = "divergent"
    #: No fault-free receivers exist (conditions hold vacuously).
    VACUOUS = "vacuous"


@slotted
@dataclass
class OutcomeReport:
    """Full classification of one execution."""

    spec: DegradableSpec
    sender: NodeId
    sender_value: Value
    sender_faulty: bool
    n_faulty: int
    #: "byzantine" (f <= m), "degraded" (m < f <= u) or "none" (f > u).
    regime: str
    shape: OutcomeShape
    #: Decisions of fault-free receivers only.
    fault_free_decisions: Dict[NodeId, Value]
    d1: Optional[bool]
    d2: Optional[bool]
    d3: Optional[bool]
    d4: Optional[bool]
    #: Whether the contract for the actual fault count is met.  Always True
    #: in the "none" regime (nothing is promised).
    satisfied: bool
    #: Size of the largest class of fault-free nodes (sender included when
    #: fault-free) agreeing on one identical value.
    largest_agreeing_class: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def distinct_values(self) -> Tuple[Value, ...]:
        """Distinct non-default decisions among fault-free receivers."""
        return tuple(distinct_non_default(self.fault_free_decisions.values()))


def classify(
    result: AgreementResult,
    faulty: AbstractSet[NodeId],
    spec: DegradableSpec,
) -> OutcomeReport:
    """Classify *result* against conditions D.1–D.4 for the given fault set."""
    sender_faulty = result.sender in faulty
    fault_free = {
        node: value
        for node, value in result.decisions.items()
        if node not in faulty
    }
    n_faulty = len(faulty)
    regime = spec.guarantee_for(n_faulty)
    shape = _shape(fault_free)

    d1 = d2 = d3 = d4 = None
    violations: List[str] = []

    if not sender_faulty:
        d1 = _check_d1(fault_free, result.sender_value)
        d3 = _check_d3(fault_free, result.sender_value)
    else:
        d2 = _check_d2(fault_free)
        d4 = _check_d4(fault_free)

    if regime == "byzantine":
        if not sender_faulty and not d1:
            violations.append(
                f"D.1 violated with f={n_faulty} <= m={spec.m}: fault-free "
                f"receivers did not all adopt the sender's value"
            )
        if sender_faulty and not d2:
            violations.append(
                f"D.2 violated with f={n_faulty} <= m={spec.m}: fault-free "
                f"receivers did not agree on one identical value"
            )
    elif regime == "degraded":
        if not sender_faulty and not d3:
            violations.append(
                f"D.3 violated with m < f={n_faulty} <= u={spec.u}: some "
                f"fault-free receiver decided a value that is neither the "
                f"sender's value nor the default"
            )
        if sender_faulty and not d4:
            violations.append(
                f"D.4 violated with m < f={n_faulty} <= u={spec.u}: "
                f"fault-free receivers split over two distinct non-default values"
            )

    return OutcomeReport(
        spec=spec,
        sender=result.sender,
        sender_value=result.sender_value,
        sender_faulty=sender_faulty,
        n_faulty=n_faulty,
        regime=regime,
        shape=shape,
        fault_free_decisions=fault_free,
        d1=d1,
        d2=d2,
        d3=d3,
        d4=d4,
        satisfied=not violations,
        largest_agreeing_class=_largest_agreeing_class(
            result, faulty, fault_free
        ),
        violations=violations,
    )


def _check_d1(fault_free: Dict[NodeId, Value], sender_value: Value) -> bool:
    return all(v == sender_value for v in fault_free.values())


def _check_d2(fault_free: Dict[NodeId, Value]) -> bool:
    values = list(fault_free.values())
    return all(v == values[0] for v in values) if values else True


def _check_d3(fault_free: Dict[NodeId, Value], sender_value: Value) -> bool:
    return all(
        v == sender_value or v is DEFAULT for v in fault_free.values()
    )


def _check_d4(fault_free: Dict[NodeId, Value]) -> bool:
    return len(distinct_non_default(fault_free.values())) <= 1


def _shape(fault_free: Dict[NodeId, Value]) -> OutcomeShape:
    if not fault_free:
        return OutcomeShape.VACUOUS
    values = set(fault_free.values())
    non_default = distinct_non_default(values)
    if len(non_default) >= 2:
        return OutcomeShape.DIVERGENT
    if not non_default:
        return OutcomeShape.UNANIMOUS_DEFAULT
    if DEFAULT in values:
        return OutcomeShape.TWO_CLASS_WITH_DEFAULT
    return OutcomeShape.UNANIMOUS_VALUE


def _largest_agreeing_class(
    result: AgreementResult,
    faulty: AbstractSet[NodeId],
    fault_free: Dict[NodeId, Value],
) -> int:
    """Largest set of fault-free nodes (sender included) agreeing on a value.

    Section 2 observes that with ``N > 2m + u`` and at most ``u`` faults,
    at least ``m + 1`` fault-free nodes agree on one identical value; this
    counter lets experiments verify exactly that.
    """
    counts: Dict[Value, int] = {}
    for value in fault_free.values():
        counts[value] = counts.get(value, 0) + 1
    if result.sender not in faulty:
        counts[result.sender_value] = counts.get(result.sender_value, 0) + 1
    return max(counts.values()) if counts else 0


def assert_contract(
    result: AgreementResult, faulty: AbstractSet[NodeId], spec: DegradableSpec
) -> OutcomeReport:
    """Classify and raise ``AssertionError`` on any contract violation.

    Convenience for tests and experiments; the error message carries the
    full list of violated conditions.
    """
    report = classify(result, faulty, spec)
    if not report.satisfied:
        raise AssertionError("; ".join(report.violations))
    return report
