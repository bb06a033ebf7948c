"""Forward and backward recovery (Section 3).

The point of degradable agreement, per the paper: up to ``m`` faults the
channel system masks them outright (*forward recovery* — the mission
continues with the correct value); between ``m + 1`` and ``u`` faults the
external entity is guaranteed to see either the correct value or the
default, and on the default it can take a safe action or *re-do the
computation* (*backward recovery*).  Only past ``u`` faults can an
undetected incorrect value slip through.

:class:`RecoveryController` wraps a channel system with that policy, and
:class:`MissionSimulator` runs a long mission with randomly arriving
transient faults to measure how often each path is taken — the quantity
behind the paper's "cost-effective approach" claim (experiment E8's
empirical sibling).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Hashable, List, Optional, Sequence

from repro.channels.system import ChannelRunReport, DegradableChannelSystem
from repro.channels.voter import VoteOutcome
from repro.core.behavior import BehaviorMap, RandomLiar
from repro.core.values import Value
from repro.exceptions import ConfigurationError

NodeId = Hashable


class RecoveryAction(enum.Enum):
    """What the external entity did with one computation step."""

    #: Voter produced a value; the mission moves forward.  (Whether the
    #: value was actually correct is recorded separately — the controller
    #: cannot tell, which is exactly the Byzantine hazard.)
    FORWARD = "forward"
    #: Voter produced the default; the step was retried.
    RETRY = "retry"
    #: Voter kept producing the default; the system fell back to the safe
    #: default action (e.g. inform the pilot).
    SAFE_STOP = "safe-stop"


@dataclass
class StepOutcome:
    """One mission step after recovery resolution."""

    action: RecoveryAction
    attempts: int
    #: The value the external entity finally acted on (None for SAFE_STOP).
    value: Optional[Value]
    #: True when a FORWARD action delivered a wrong value — the unsafe case.
    unsafe: bool
    reports: List[ChannelRunReport] = field(default_factory=list)


#: Produces the fault set for a given attempt of a given step; attempt
#: numbering restarts the faults, modelling transients that may clear on
#: retry.
FaultSampler = Callable[[int, int], AbstractSet[NodeId]]


class RecoveryController:
    """Default-value-driven forward/backward recovery policy."""

    def __init__(self, system: DegradableChannelSystem, max_retries: int = 2) -> None:
        if max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {max_retries}")
        self.system = system
        self.max_retries = max_retries

    def execute_step(
        self,
        sender_value: Value,
        step_no: int,
        fault_sampler: FaultSampler,
        behavior_factory: Optional[Callable[[AbstractSet[NodeId]], BehaviorMap]] = None,
    ) -> StepOutcome:
        """Run one step, retrying on default verdicts (backward recovery)."""
        reports: List[ChannelRunReport] = []
        for attempt in range(self.max_retries + 1):
            faulty = fault_sampler(step_no, attempt)
            behaviors = behavior_factory(faulty) if behavior_factory else None
            report = self.system.run(
                sender_value, faulty=faulty, agreement_behaviors=behaviors
            )
            reports.append(report)
            if report.verdict.outcome is not VoteOutcome.DEFAULT:
                return StepOutcome(
                    action=RecoveryAction.FORWARD if attempt == 0 else RecoveryAction.RETRY,
                    attempts=attempt + 1,
                    value=report.verdict.value,
                    unsafe=report.verdict.outcome is VoteOutcome.INCORRECT,
                    reports=reports,
                )
        return StepOutcome(
            action=RecoveryAction.SAFE_STOP,
            attempts=self.max_retries + 1,
            value=None,
            unsafe=False,
            reports=reports,
        )


@dataclass
class MissionStats:
    """Aggregate outcome of a simulated mission."""

    steps: int = 0
    forward: int = 0
    recovered: int = 0
    safe_stops: int = 0
    unsafe: int = 0
    total_attempts: int = 0

    @property
    def availability(self) -> float:
        """Fraction of steps that produced a usable (possibly retried) value."""
        if self.steps == 0:
            return 1.0
        return (self.forward + self.recovered) / self.steps

    @property
    def safety(self) -> float:
        """Fraction of steps that did not act on a wrong value."""
        if self.steps == 0:
            return 1.0
        return 1.0 - self.unsafe / self.steps


class MissionSimulator:
    """Long-running mission with randomly arriving transient faults.

    Each step, every node independently suffers a transient fault with
    probability *fault_probability*; transient faults clear on retry with
    probability *clear_probability*.  Faulty nodes lie randomly during
    agreement (seeded RNG), exercising the whole stack end to end.
    """

    def __init__(
        self,
        system: DegradableChannelSystem,
        fault_probability: float,
        clear_probability: float = 0.5,
        max_retries: int = 2,
        seed: int = 0,
        value_domain: Sequence[Value] = (0, 1, 2),
    ) -> None:
        if not 0.0 <= fault_probability <= 1.0:
            raise ConfigurationError(
                f"fault_probability must be in [0, 1], got {fault_probability}"
            )
        if not 0.0 <= clear_probability <= 1.0:
            raise ConfigurationError(
                f"clear_probability must be in [0, 1], got {clear_probability}"
            )
        self.system = system
        self.controller = RecoveryController(system, max_retries=max_retries)
        self.fault_probability = fault_probability
        self.clear_probability = clear_probability
        self.rng = random.Random(seed)
        self.value_domain = list(value_domain)

    def run(self, n_steps: int, sender_value: Value = 1) -> MissionStats:
        stats = MissionStats()
        for step_no in range(n_steps):
            base_faults = frozenset(
                node
                for node in self.system.nodes
                if self.rng.random() < self.fault_probability
            )

            def sampler(step: int, attempt: int) -> AbstractSet[NodeId]:
                if attempt == 0:
                    return base_faults
                return frozenset(
                    node
                    for node in self.system.nodes
                    if node in base_faults
                    and self.rng.random() >= self.clear_probability
                )

            outcome = self.controller.execute_step(
                sender_value,
                step_no,
                sampler,
                behavior_factory=self._random_behaviors,
            )
            stats.steps += 1
            stats.total_attempts += outcome.attempts
            if outcome.action is RecoveryAction.FORWARD:
                stats.forward += 1
            elif outcome.action is RecoveryAction.RETRY:
                stats.recovered += 1
            else:
                stats.safe_stops += 1
            if outcome.unsafe:
                stats.unsafe += 1
        return stats

    def _random_behaviors(self, faulty: AbstractSet[NodeId]) -> BehaviorMap:
        # Draws follow system.nodes, never a set's hash order, so a seed
        # means the same mission in every process.
        return {
            node: RandomLiar(self.value_domain, rng=random.Random(self.rng.getrandbits(32)))
            for node in self.system.nodes
            if node in faulty
        }
