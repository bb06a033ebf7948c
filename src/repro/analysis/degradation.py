"""Degradation profiles: outcome shape as a function of the fault count.

The qualitative story of the paper — full agreement, then a two-class
degraded band, then nothing — can be *plotted*: for a given (m, u, N)
instance, sweep the fault count from 0 to N-1, attack each level with a
battery of adversaries, and record the distribution of outcome shapes and
the size of the largest agreeing fault-free class.

The resulting profile is the reproduction's "figure" for the definitional
Section 2 (the paper itself has no such plot; EXPERIMENTS.md labels it an
extension artefact).  Expected shape for an m/u instance:

* ``f <= m``: 100% unanimous outcomes, agreeing class = all fault-free;
* ``m < f <= u``: unanimous or two-class-with-default, agreeing class
  never below ``m + 1``;
* ``f > u``: divergent outcomes appear (the guarantee is gone, and the
  profile shows exactly where).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.charts import sparkline, staircase
from repro.analysis.montecarlo import ADVERSARY_ZOO, run_campaign
from repro.core.conditions import OutcomeShape
from repro.core.spec import DegradableSpec
from repro.exceptions import AnalysisError


@dataclass
class DegradationLevel:
    """Aggregated outcomes at one fault count."""

    n_faulty: int
    regime: str
    trials: int
    unanimous: int = 0
    two_class: int = 0
    divergent: int = 0
    violations: int = 0
    min_agreeing: Optional[int] = None

    @property
    def dominant(self) -> str:
        """Label of the worst shape observed at this level."""
        if self.divergent:
            return "divergent"
        if self.two_class:
            return "two-class"
        return "unanimous"


@dataclass
class DegradationProfile:
    spec: DegradableSpec
    levels: List[DegradationLevel] = field(default_factory=list)

    def level(self, f: int) -> DegradationLevel:
        for lvl in self.levels:
            if lvl.n_faulty == f:
                return lvl
        raise AnalysisError(f"no level for f={f}")

    # ------------------------------------------------------------------
    # The paper's qualitative predictions, as checks on the profile
    # ------------------------------------------------------------------
    def full_band_clean(self) -> bool:
        """No violations and no splits while f <= m."""
        return all(
            lvl.violations == 0 and lvl.two_class == 0 and lvl.divergent == 0
            for lvl in self.levels
            if lvl.n_faulty <= self.spec.m
        )

    def degraded_band_clean(self) -> bool:
        """No violations and no divergence while m < f <= u."""
        return all(
            lvl.violations == 0 and lvl.divergent == 0
            for lvl in self.levels
            if self.spec.m < lvl.n_faulty <= self.spec.u
        )

    def core_agreement_floor(self) -> Optional[int]:
        """Smallest agreeing class observed anywhere in the u-band."""
        values = [
            lvl.min_agreeing
            for lvl in self.levels
            if lvl.n_faulty <= self.spec.u and lvl.min_agreeing is not None
        ]
        return min(values) if values else None

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        labels = [f"f={lvl.n_faulty}" for lvl in self.levels]
        cells = {
            "worst shape": [lvl.dominant for lvl in self.levels],
            "regime": [lvl.regime for lvl in self.levels],
            "min agreeing": [
                "-" if lvl.min_agreeing is None else str(lvl.min_agreeing)
                for lvl in self.levels
            ],
        }
        chart = staircase(
            cells,
            x_labels=labels,
            legend=(
                f"(guaranteed agreeing core within u: {self.spec.m + 1}; "
                f"spec: {self.spec})"
            ),
        )
        trend = sparkline(
            [lvl.two_class + lvl.divergent for lvl in self.levels]
        )
        return chart + f"\nnon-unanimous outcomes per level: {trend}"


def degradation_profile(
    spec: DegradableSpec,
    trials_per_level: int = 60,
    max_faults: Optional[int] = None,
    seed: int = 0,
    adversaries: Optional[Dict] = None,
) -> DegradationProfile:
    """Measure the outcome-shape profile across fault counts.

    ``max_faults`` defaults to ``N - 1`` so the profile shows the collapse
    beyond ``u``, not just the guaranteed bands.
    """
    if trials_per_level < 1:
        raise AnalysisError(
            f"trials_per_level must be >= 1, got {trials_per_level}"
        )
    max_faults = spec.n_nodes - 1 if max_faults is None else max_faults
    profile = DegradationProfile(spec=spec)
    for f in range(max_faults + 1):
        summary = run_campaign(
            spec,
            n_trials=trials_per_level,
            fault_counts=[f],
            seed=seed + f,
            adversaries=adversaries or ADVERSARY_ZOO,
        )
        level = DegradationLevel(
            n_faulty=f,
            regime=spec.guarantee_for(f),
            trials=summary.n_trials,
        )
        for trial in summary.trials:
            if trial.shape in (
                OutcomeShape.UNANIMOUS_VALUE,
                OutcomeShape.UNANIMOUS_DEFAULT,
                OutcomeShape.VACUOUS,
            ):
                level.unanimous += 1
            elif trial.shape is OutcomeShape.TWO_CLASS_WITH_DEFAULT:
                level.two_class += 1
            else:
                level.divergent += 1
            if not trial.satisfied:
                level.violations += 1
            level.min_agreeing = (
                trial.largest_agreeing_class
                if level.min_agreeing is None
                else min(level.min_agreeing, trial.largest_agreeing_class)
            )
        profile.levels.append(level)
    return profile


def degradation_case(
    spec: DegradableSpec, trials_per_level: int, seed: int
) -> Tuple[DegradationProfile, bool]:
    """The profile of one instance, and whether it matches the definition:
    unanimous within m faults, at worst two-class within u, and an agreeing
    core of at least m + 1 throughout."""
    profile = degradation_profile(spec, trials_per_level=trials_per_level, seed=seed)
    return profile, (
        profile.full_band_clean()
        and profile.degraded_band_clean()
        and profile.core_agreement_floor() >= spec.m + 1
    )
