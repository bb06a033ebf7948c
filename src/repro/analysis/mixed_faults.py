"""Mixed fault budgets: Byzantine vs crash faults, empirically.

The paper's bounds charge every fault at the full Byzantine rate.  Real
systems mostly see *crash* faults (a silent node, whose absence receivers
detect and convert to ``V_d``), which are strictly weaker.  This module
characterizes — empirically, making no theorem claims — how the agreement
conditions fare under a budget of ``b`` Byzantine plus ``c`` crash faults:

* the **degraded** conditions D.3/D.4 are remarkably crash-tolerant: a
  crashed node can only inject ``V_d``, which the two-class form absorbs,
  so the empirical degraded envelope extends well beyond ``b + c <= u``
  as long as ``b`` alone stays within ``u``;
* the **full** conditions D.1/D.2 are not: every crash beyond the vote
  slack erodes the threshold, so the full envelope tracks ``b + c <= m``.

The experiment grid (:func:`mixed_fault_grid`) measures, for each (b, c)
cell, which guarantee level actually held across randomized placements and
adversaries — the reproduction's answer to "what does degradable agreement
buy on realistic fault mixes".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.charts import staircase
from repro.core.behavior import (
    Behavior,
    BehaviorMap,
    ChainLiar,
    ConstantLiar,
    EchoAsBehavior,
    SilentBehavior,
    TwoFacedBehavior,
)
from repro.core.byz import run_degradable_agreement
from repro.core.scenario import node_ids
from repro.core.spec import DegradableSpec
from repro.core.values import DEFAULT
from repro.exceptions import AnalysisError

DOMAIN = ("alpha", "beta", "gamma")


@dataclass
class MixedCell:
    """Outcome statistics for one (byzantine, crash) budget."""

    n_byzantine: int
    n_crash: int
    trials: int
    #: trials where D.1/D.2 (full agreement) held
    full_ok: int = 0
    #: trials where at least D.3/D.4 (two-class) held
    degraded_ok: int = 0
    #: True when the fault budget swallows every receiver (conditions hold
    #: vacuously — there is nobody left to disagree).
    vacuous: bool = False

    @property
    def level(self) -> str:
        """Strongest guarantee that held in *every* trial of this cell."""
        if self.vacuous:
            return "n/a"
        if self.full_ok == self.trials:
            return "FULL"
        if self.degraded_ok == self.trials:
            return "2cls"
        return "."


@dataclass
class MixedFaultStudy:
    spec: DegradableSpec
    cells: List[MixedCell] = field(default_factory=list)

    def cell(self, b: int, c: int) -> MixedCell:
        for cell in self.cells:
            if cell.n_byzantine == b and cell.n_crash == c:
                return cell
        raise AnalysisError(f"no cell for b={b}, c={c}")

    def render(self) -> str:
        b_values = sorted({cell.n_byzantine for cell in self.cells})
        c_values = sorted({cell.n_crash for cell in self.cells})
        series = {}
        for b in b_values:
            series[f"b={b}"] = [self.cell(b, c).level for c in c_values]
        return staircase(
            series,
            x_labels=[f"c={c}" for c in c_values],
            legend=(
                f"({self.spec}; FULL = D.1/D.2 in every trial, "
                f"2cls = D.3/D.4 in every trial, . = some trial lost both)"
            ),
        )


def _byzantine_behavior(rng: random.Random, sender: str) -> Behavior:
    kind = rng.randrange(4)
    if kind == 0:
        return ConstantLiar(rng.choice(DOMAIN))
    if kind == 1:
        return EchoAsBehavior(rng.choice(DOMAIN))
    if kind == 2:
        return ChainLiar(rng.choice(DOMAIN), sender)
    return TwoFacedBehavior({f"p{k}": rng.choice(DOMAIN) for k in (1, 2, 3)})


def mixed_fault_grid(
    spec: DegradableSpec,
    max_byzantine: Optional[int] = None,
    max_crash: Optional[int] = None,
    trials_per_cell: int = 40,
    seed: int = 0,
) -> MixedFaultStudy:
    """Measure guarantee levels over the (byzantine, crash) budget grid.

    The sender is kept fault-free so that "full agreement" has a fixed
    reference value; faulty-sender behaviour is covered by the main
    condition sweeps.
    """
    if trials_per_cell < 1:
        raise AnalysisError(f"trials_per_cell must be >= 1, got {trials_per_cell}")
    max_byzantine = spec.u if max_byzantine is None else max_byzantine
    max_crash = (
        spec.n_nodes - 1 - max_byzantine if max_crash is None else max_crash
    )
    nodes = node_ids(spec.n_nodes)
    receivers = nodes[1:]
    study = MixedFaultStudy(spec=spec)

    for b in range(max_byzantine + 1):
        for c in range(max_crash + 1):
            if b + c > len(receivers):
                continue
            cell = MixedCell(
                n_byzantine=b,
                n_crash=c,
                trials=trials_per_cell,
                vacuous=(b + c == len(receivers)),
            )
            rng = random.Random(seed * 7919 + b * 131 + c)
            for _ in range(trials_per_cell):
                chosen = rng.sample(receivers, b + c)
                behaviors: BehaviorMap = {}
                for node in chosen[:b]:
                    behaviors[node] = _byzantine_behavior(rng, "S")
                for node in chosen[b:]:
                    behaviors[node] = SilentBehavior()
                value = rng.choice(DOMAIN)
                result = run_degradable_agreement(
                    spec, nodes, "S", value, behaviors
                )
                fault_free = {
                    n: v
                    for n, v in result.decisions.items()
                    if n not in behaviors
                }
                if all(v == value for v in fault_free.values()):
                    cell.full_ok += 1
                    cell.degraded_ok += 1
                elif all(
                    v == value or v is DEFAULT for v in fault_free.values()
                ):
                    cell.degraded_ok += 1
            study.cells.append(cell)
    return study


def crash_only_envelope(
    spec: DegradableSpec, trials_per_count: int = 40, seed: int = 1
) -> Dict[int, str]:
    """Guarantee level vs number of pure crash faults (b = 0 column).

    The headline empirical fact: with crashes only, the two-class property
    holds for *every* crash count (a silent node can only contribute
    ``V_d``), while full agreement ends at ``c <= m``... plus the vote
    slack when the system is above minimum size.
    """
    study = mixed_fault_grid(
        spec,
        max_byzantine=0,
        max_crash=spec.n_nodes - 1,
        trials_per_cell=trials_per_count,
        seed=seed,
    )
    return {
        cell.n_crash: cell.level
        for cell in study.cells
        if cell.n_byzantine == 0
    }
