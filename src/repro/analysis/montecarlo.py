"""Monte-Carlo fault-injection harness.

Randomized end-to-end validation: sample fault sets and adversary
behaviours, run an agreement protocol, classify the outcome against the
paper's conditions, and aggregate.  Used by the integration tests (no
violations may ever appear within the ``u``-fault envelope) and by the
experiments to chart how gracefully the outcome *shape* degrades with the
fault count — full agreement up to ``m``, two-class degradation up to
``u``, and genuine divergence only beyond.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence

from repro.core.behavior import (
    Behavior,
    BehaviorMap,
    ConstantLiar,
    EchoAsBehavior,
    LieAboutSender,
    RandomLiar,
    SilentBehavior,
)
from repro.core.byz import run_degradable_agreement
from repro.core.conditions import OutcomeShape, classify
from repro.core.spec import DegradableSpec
from repro.core.values import Value
from repro.exceptions import AnalysisError

NodeId = Hashable

#: Builds a behaviour for one faulty node given (rng, node, sender, domain).
BehaviorFactory = Callable[[random.Random, NodeId, NodeId, Sequence[Value]], Behavior]


def _random_liar(rng, node, sender, domain):
    return RandomLiar(domain, rng=random.Random(rng.getrandbits(32)))


def _constant_liar(rng, node, sender, domain):
    return ConstantLiar(rng.choice(list(domain)))


def _silent(rng, node, sender, domain):
    return SilentBehavior()


def _two_faced(rng, node, sender, domain):
    # Coherent two-faced lie about the direct-from-sender value.
    return LieAboutSender(rng.choice(list(domain)), sender)


def _echo_as(rng, node, sender, domain):
    return EchoAsBehavior(rng.choice(list(domain)))


#: The adversary zoo the fuzzer samples from.
ADVERSARY_ZOO: Dict[str, BehaviorFactory] = {
    "random-liar": _random_liar,
    "constant-liar": _constant_liar,
    "silent": _silent,
    "lie-about-sender": _two_faced,
    "echo-as": _echo_as,
}


@dataclass
class TrialRecord:
    n_faulty: int
    sender_faulty: bool
    regime: str
    shape: OutcomeShape
    satisfied: bool
    adversary: str
    largest_agreeing_class: int


@dataclass
class MonteCarloSummary:
    """Aggregated results of a fuzzing campaign."""

    spec: DegradableSpec
    trials: List[TrialRecord] = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def violations(self) -> List[TrialRecord]:
        return [t for t in self.trials if not t.satisfied]

    def by_fault_count(self) -> Dict[int, Dict[str, int]]:
        """``{f: {shape/violation counters}}`` for the degradation chart."""
        out: Dict[int, Dict[str, int]] = {}
        for trial in self.trials:
            bucket = out.setdefault(
                trial.n_faulty,
                {
                    "trials": 0,
                    "violations": 0,
                    "unanimous_value": 0,
                    "unanimous_default": 0,
                    "two_class": 0,
                    "divergent": 0,
                    "min_agreeing": None,
                },
            )
            bucket["trials"] += 1
            if not trial.satisfied:
                bucket["violations"] += 1
            key = {
                OutcomeShape.UNANIMOUS_VALUE: "unanimous_value",
                OutcomeShape.UNANIMOUS_DEFAULT: "unanimous_default",
                OutcomeShape.TWO_CLASS_WITH_DEFAULT: "two_class",
                OutcomeShape.DIVERGENT: "divergent",
                OutcomeShape.VACUOUS: "unanimous_default",
            }[trial.shape]
            bucket[key] += 1
            current = bucket["min_agreeing"]
            bucket["min_agreeing"] = (
                trial.largest_agreeing_class
                if current is None
                else min(current, trial.largest_agreeing_class)
            )
        return out


def run_campaign(
    spec: DegradableSpec,
    n_trials: int,
    fault_counts: Optional[Sequence[int]] = None,
    seed: int = 0,
    value_domain: Sequence[Value] = ("alpha", "beta", "gamma"),
    adversaries: Optional[Dict[str, BehaviorFactory]] = None,
    include_sender_fault: bool = True,
) -> MonteCarloSummary:
    """Fuzz the degradable agreement protocol.

    Parameters
    ----------
    spec:
        The agreement instance under test.
    n_trials:
        Number of randomized executions.
    fault_counts:
        Candidate fault counts to sample from (default ``0 .. u``).  Counts
        beyond ``u`` are allowed — the experiments use them to chart where
        guarantees genuinely end.
    seed:
        Campaign RNG seed (fully reproducible).
    value_domain:
        Values senders and liars draw from.
    adversaries:
        Behaviour factories to sample from; defaults to the full zoo.
    include_sender_fault:
        Whether the sampled fault set may include the sender.
    """
    if n_trials < 1:
        raise AnalysisError(f"n_trials must be >= 1, got {n_trials}")
    rng = random.Random(seed)
    fault_counts = list(
        fault_counts if fault_counts is not None else range(spec.u + 1)
    )
    zoo = dict(adversaries or ADVERSARY_ZOO)
    zoo_names = sorted(zoo)
    nodes = [f"p{k}" for k in range(spec.n_nodes)]
    sender = nodes[0]
    summary = MonteCarloSummary(spec=spec)

    for _ in range(n_trials):
        f = rng.choice(fault_counts)
        candidates = nodes if include_sender_fault else nodes[1:]
        # Each factory draws from the campaign RNG, so behaviours are built
        # in the sampled order: a frozenset's order follows the string hash.
        sampled = rng.sample(candidates, f) if f else []
        faulty = frozenset(sampled)
        adversary_name = rng.choice(zoo_names)
        factory = zoo[adversary_name]
        behaviors: BehaviorMap = {
            node: factory(rng, node, sender, value_domain) for node in sampled
        }
        sender_value = rng.choice(list(value_domain))
        result = run_degradable_agreement(
            spec, nodes, sender, sender_value, behaviors
        )
        report = classify(result, faulty, spec)
        summary.trials.append(
            TrialRecord(
                n_faulty=f,
                sender_faulty=sender in faulty,
                regime=report.regime,
                shape=report.shape,
                satisfied=report.satisfied,
                adversary=adversary_name,
                largest_agreeing_class=report.largest_agreeing_class,
            )
        )
    return summary
