"""Soak campaigns: degradation-spec sweeps under seeded network chaos.

A campaign sweeps a grid of ``(m, u, N) x severity x seed`` trials.  Each
trial runs one agreement instance through the
:class:`~repro.net.runner.AsyncRoundRunner` behind a
:class:`~repro.net.chaos.transport.ChaosTransport`, translates the chaos
the run actually suffered into an effective fault count
(:mod:`~repro.net.chaos.accounting`), and judges the outcome against the
guarantee tier that fault count selects:

* ``f_eff <= m`` — D.1/D.2 asserted;
* ``m < f_eff <= u`` — D.3/D.4 asserted (the two-class split, one class
  on ``V_d``);
* ``f_eff > u`` — recorded, never asserted (the paper promises nothing).

Every trial is a pure function of its :class:`TrialConfig` — a failed
trial prints a replay token that reruns it alone, bit for bit::

    python -m repro chaos --replay "m=1,u=2,n=5,severity=heavy,transport=local,seed=123456,timeout=0.25"

The report (:class:`CampaignReport`, JSON-serializable) records per-tier
pass rates, total chaos event counts, each failure's replay token, and
the worst-case seeds (failures first, heaviest chaos otherwise).

:func:`run_seeded_instance` is the recipe underneath — one seeded,
optionally chaotic / supervised / traced net instance — shared with
``repro trace`` and the differential fuzzer, so a ``(seed, severity)``
pair names the same schedule in all three.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.conditions import classify
from repro.core.scenario import (
    SHAPE_FIELDS,
    Instance,
    flag,
    format_token,
    parse_token,
)
from repro.exceptions import ConfigurationError
from repro.net.chaos.accounting import tier_is_asserted
from repro.net.chaos.policy import SEVERITIES, seeded_policy
from repro.net.runner import NetRunOutcome, run_agreement_async
from repro.net.stack import make_transport

#: Spec grid a campaign cycles through: the paper's running example, the
#: m = 0 special case, a roomier degraded band, and a deeper recursion.
DEFAULT_GRID: Tuple[Tuple[int, int, int], ...] = (
    (1, 2, 5),
    (0, 2, 4),
    (1, 3, 6),
    (2, 3, 8),
)

TRANSPORTS = ("local", "tcp")

SENDER_VALUE = "engage"

#: The chaos replay grammar: token key -> (TrialConfig keyword, conversion).
TOKEN_FIELDS = {
    **SHAPE_FIELDS,
    "severity": ("severity", str),
    "transport": ("transport", str),
    "seed": ("seed", int),
    "timeout": ("timeout", float),
    "kill_links": ("kill_links", flag),
}


@dataclass(frozen=True)
class TrialConfig:
    """Everything that determines one trial, replayable from equality."""

    m: int
    u: int
    n_nodes: int
    severity: str
    transport: str
    seed: int
    timeout: float = 0.25
    #: Kill-links mode: schedule a hard reset of every pooled connection
    #: plus one node's endpoint crash-restart mid-run, and run the trial
    #: under a reconnecting :class:`~repro.net.supervision.SupervisedTransport`.
    kill_links: bool = False

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ConfigurationError(
                f"unknown severity {self.severity!r}; choose from {SEVERITIES}"
            )
        if self.transport not in TRANSPORTS:
            raise ConfigurationError(
                f"unknown transport {self.transport!r}; choose from {TRANSPORTS}"
            )
        if self.timeout <= 0:
            raise ConfigurationError(
                f"timeout must be > 0, got {self.timeout}"
            )

    @property
    def instance(self) -> Instance:
        """The fault-free agreement instance this trial runs under chaos."""
        return Instance(self.m, self.u, self.n_nodes, SENDER_VALUE)

    @property
    def replay_token(self) -> str:
        fields = [
            ("m", self.m),
            ("u", self.u),
            ("n", self.n_nodes),
            ("severity", self.severity),
            ("transport", self.transport),
            ("seed", self.seed),
            ("timeout", self.timeout),
        ]
        if self.kill_links:
            # Appended only when set, so pre-existing tokens keep parsing
            # (and old tokens replay the same trials they always named).
            fields.append(("kill_links", 1))
        return format_token(fields)


def parse_replay(token: str) -> TrialConfig:
    """Inverse of :attr:`TrialConfig.replay_token`."""
    required = ("m", "u", "n", "severity", "transport", "seed")
    return TrialConfig(**parse_token(token, "chaos", TOKEN_FIELDS, required))


@dataclass
class TrialResult:
    """One trial's verdict plus the chaos that produced it."""

    config: TrialConfig
    f_eff: int
    afflicted: List[str]
    tier: str
    #: Whether the tier obliges any condition (False for ``f_eff > u``).
    checked: bool
    #: Verdict when checked; None in the record-only tier.
    passed: Optional[bool]
    shape: str
    violations: List[str]
    decisions: Dict[str, str]
    chaos_counts: Dict[str, int]
    substitutions: int
    timeouts: int
    #: Connection re-dials the transport healed (kill-links mode).
    reconnects: int = 0
    #: Endpoint crash-restarts the chaos layer executed.
    endpoint_restarts: int = 0
    #: Full NetMetrics counter fingerprint — compared across same-seed
    #: re-runs by the ``--kill-links`` determinism gate (kept out of the
    #: JSON report; the replay token reproduces it on demand).
    fingerprint: Dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.checked and not self.passed

    def to_json(self) -> Dict:
        return {
            "replay": self.config.replay_token,
            "f_eff": self.f_eff,
            "afflicted": self.afflicted,
            "tier": self.tier,
            "checked": self.checked,
            "passed": self.passed,
            "shape": self.shape,
            "violations": self.violations,
            "decisions": self.decisions,
            "chaos_counts": self.chaos_counts,
            "substitutions": self.substitutions,
            "timeouts": self.timeouts,
            "reconnects": self.reconnects,
            "endpoint_restarts": self.endpoint_restarts,
        }

    def line(self) -> str:
        """The one-line campaign progress form."""
        status = "FAIL" if self.failed else "ok" if self.checked else "rec"
        return (
            f"  [{status}] {self.config.replay_token} "
            f"tier={self.tier} f_eff={self.f_eff}"
        )

    def render(self) -> str:
        """The full single-trial report ``repro chaos --replay`` prints."""
        lines = [
            f"replay {self.config.replay_token}",
            f"  tier={self.tier} f_eff={self.f_eff} afflicted={self.afflicted}",
            f"  shape={self.shape} substitutions={self.substitutions} "
            f"timeouts={self.timeouts}",
            f"  chaos={self.chaos_counts}",
            *(f"    {n} -> {v}" for n, v in sorted(self.decisions.items())),
        ]
        if not self.checked:
            lines.append(
                "verdict: RECORD-ONLY (f_eff > u; the paper promises "
                "nothing here)"
            )
        elif self.passed:
            lines.append("verdict: PASSED")
        else:
            lines.append("verdict: FAILED")
            lines += [f"  !! {violation}" for violation in self.violations]
        return "\n".join(lines)


async def run_seeded_instance(
    instance: Instance,
    transport: str,
    round_timeout: float,
    severity: str = "",
    seed: int = 0,
    kill_links: bool = False,
    batching: bool = True,
    tracer=None,
) -> Tuple[NetRunOutcome, FrozenSet, str]:
    """Run *instance* once over the async runtime, a pure function of its
    arguments; return the outcome, the afflicted set and the tier.

    *severity* (``""`` = a clean network) and *seed* select the chaos via
    :func:`~repro.net.chaos.policy.seeded_policy`; *kill_links* layers the
    self-healing soak on it and runs under a reconnecting supervisor.  The
    afflicted set is the instance's declared faulty nodes plus every node
    the chaos layer charged — the fault set the run is to be judged
    against — and the tier is the guarantee its size selects.
    """
    spec, nodes = instance.spec(), instance.nodes()
    policy = rng = None
    if severity:
        policy, rng = seeded_policy(severity, spec, nodes, seed, kill_links)
    outcome = await run_agreement_async(
        spec,
        nodes,
        nodes[0],
        instance.sender_value,
        behaviors=instance.behaviors(),
        transport=make_transport(transport),
        round_timeout=round_timeout,
        chaos=policy,
        chaos_rng=rng,
        batching=batching,
        # Supervision jitter defaults to Random(policy.seed): the trial seed.
        supervise=kill_links,
        tracer=tracer,
    )
    afflicted = instance.behavior_faulty
    if outcome.chaos is not None:
        afflicted = afflicted | outcome.chaos.afflicted
    return outcome, afflicted, spec.guarantee_for(len(afflicted))


async def run_trial(config: TrialConfig) -> TrialResult:
    """Run one chaos trial; a pure function of *config*."""
    instance = config.instance
    outcome, afflicted, tier = await run_seeded_instance(
        instance,
        config.transport,
        config.timeout,
        config.severity,
        config.seed,
        config.kill_links,
    )
    checked = tier_is_asserted(tier)
    report = classify(outcome.result, afflicted, instance.spec())
    return TrialResult(
        config=config,
        f_eff=len(afflicted),
        afflicted=sorted(str(n) for n in afflicted),
        tier=tier,
        checked=checked,
        passed=report.satisfied if checked else None,
        shape=report.shape.value,
        violations=list(report.violations),
        decisions={
            str(node): repr(value)
            for node, value in sorted(
                outcome.result.decisions.items(), key=lambda kv: str(kv[0])
            )
        },
        chaos_counts=outcome.chaos.counts(),
        substitutions=outcome.result.stats.substitutions,
        timeouts=outcome.metrics.total_timeouts,
        reconnects=outcome.metrics.total_reconnects,
        endpoint_restarts=outcome.metrics.endpoint_restarts,
        fingerprint=outcome.metrics.counters(),
    )


def run_trial_sync(config: TrialConfig) -> TrialResult:
    return asyncio.run(run_trial(config))


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------
@dataclass
class CampaignReport:
    """Aggregated verdicts of one soak campaign."""

    seed: int
    transport: str
    severities: List[str]
    trials_per_severity: int
    timeout: float
    trials: List[TrialResult] = field(default_factory=list)
    #: Kill-links campaigns only: what the same-seed re-run did not
    #: reproduce, one line per trial (None = the campaign was not re-run).
    rerun_mismatches: Optional[List[str]] = None

    @property
    def failures(self) -> List[TrialResult]:
        return [t for t in self.trials if t.failed]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.rerun_mismatches

    def diff(self, rerun: Sequence[TrialResult]) -> List[str]:
        """Trials *rerun* did not reproduce, each named by replay token.

        The soak gate's determinism half: the same seeded trials, re-run,
        must reproduce every decision and the full wire fingerprint —
        reconnect and restart counters included — or the self-healing
        layer leaked wall-clock state into the run.
        """
        mismatches = []
        for first, second in zip(self.trials, rerun):
            token = first.config.replay_token
            if first.decisions != second.decisions:
                mismatches.append(f"{token}: decisions diverged")
            elif first.fingerprint != second.fingerprint:
                changed = sorted(
                    set(first.fingerprint.items())
                    ^ set(second.fingerprint.items())
                )
                mismatches.append(
                    f"{token}: fingerprint diverged ({changed[:6]})"
                )
        return mismatches

    def tier_summary(self) -> Dict[str, Dict]:
        out: Dict[str, Dict] = {}
        for tier in ("byzantine", "degraded", "none"):
            tier_trials = [t for t in self.trials if t.tier == tier]
            entry: Dict = {"trials": len(tier_trials)}
            if tier == "none":
                entry["recorded"] = len(tier_trials)
            else:
                passed = sum(1 for t in tier_trials if t.passed)
                entry["passed"] = passed
                entry["pass_rate"] = (
                    passed / len(tier_trials) if tier_trials else 1.0
                )
            out[tier] = entry
        return out

    def chaos_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for trial in self.trials:
            for kind, count in trial.chaos_counts.items():
                totals[kind] = totals.get(kind, 0) + count
        return totals

    def worst_case_seeds(self, limit: int = 3) -> List[str]:
        """Replay tokens worth keeping: failures first, heaviest chaos next."""
        if self.failures:
            return [t.config.replay_token for t in self.failures]
        heaviest = sorted(
            self.trials,
            key=lambda t: sum(t.chaos_counts.values()),
            reverse=True,
        )
        return [t.config.replay_token for t in heaviest[:limit]]

    def to_json(self) -> Dict:
        return {
            "seed": self.seed,
            "transport": self.transport,
            "severities": self.severities,
            "trials_per_severity": self.trials_per_severity,
            "timeout": self.timeout,
            "n_trials": len(self.trials),
            "ok": self.ok,
            "tiers": self.tier_summary(),
            "chaos_totals": self.chaos_totals(),
            "failures": [t.config.replay_token for t in self.failures],
            "worst_case_seeds": self.worst_case_seeds(),
            "trials": [t.to_json() for t in self.trials],
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        """The campaign summary: self-healing and re-run lines for a
        kill-links soak, then per-tier pass rates and chaos totals (a
        soak its re-run did not reproduce stops at the mismatches)."""
        lines = []
        if self.rerun_mismatches is not None:
            reconnects = sum(t.reconnects for t in self.trials)
            restarts = sum(t.endpoint_restarts for t in self.trials)
            lines.append(
                f"  self-healing: {reconnects} reconnect(s), "
                f"{restarts} endpoint restart(s) across "
                f"{len(self.trials)} trial(s)"
            )
            if self.rerun_mismatches:
                lines.append("  !! same-seed re-run NOT reproducible:")
                lines += [f"     {line}" for line in self.rerun_mismatches]
                return "\n".join(lines)
            lines.append(
                f"  same-seed re-run: all {len(self.trials)} trial "
                f"fingerprint(s) and decisions identical"
            )
        for tier, entry in self.tier_summary().items():
            if tier == "none":
                lines.append(
                    f"  tier {tier:<9}: {entry['trials']} trial(s) recorded "
                    f"(no guarantee asserted)"
                )
            else:
                lines.append(
                    f"  tier {tier:<9}: {entry['passed']}/{entry['trials']} "
                    f"passed (rate {entry['pass_rate']:.2f})"
                )
        totals = self.chaos_totals()
        if totals:
            lines.append(
                "  chaos totals: "
                + " ".join(f"{k}={v}" for k, v in sorted(totals.items()))
            )
        return "\n".join(lines)

    def verdict(self) -> str:
        """The closing verdict, with a replay command per failed trial."""
        if self.rerun_mismatches:
            return "campaign FAILED (kill-links determinism)"
        if self.ok:
            return (
                f"campaign PASSED ({len(self.trials)} trials, "
                f"0 checked-tier violations)"
            )
        return "\n".join([
            f"campaign FAILED ({len(self.failures)} checked-tier "
            f"violation(s)); replay each with:",
            *(f'  python -m repro chaos --replay "{t.config.replay_token}"'
              for t in self.failures),
        ])


def trial_seed(base_seed: int, severity: str, index: int) -> int:
    """Stable per-trial seed: hashable from the campaign seed alone."""
    return random.Random(f"{base_seed}|{severity}|{index}").getrandbits(32)


def campaign_configs(
    base_seed: int,
    severities: Sequence[str],
    trials_per_severity: int,
    transport: str,
    timeout: float = 0.25,
    grid: Sequence[Tuple[int, int, int]] = DEFAULT_GRID,
    kill_links: bool = False,
) -> List[TrialConfig]:
    """The full deterministic trial list for one campaign."""
    configs: List[TrialConfig] = []
    for severity in severities:
        for index in range(trials_per_severity):
            m, u, n = grid[index % len(grid)]
            configs.append(
                TrialConfig(
                    m=m,
                    u=u,
                    n_nodes=n,
                    severity=severity,
                    transport=transport,
                    seed=trial_seed(base_seed, severity, index),
                    timeout=timeout,
                    kill_links=kill_links,
                )
            )
    return configs


async def run_campaign(
    base_seed: int,
    severities: Sequence[str],
    trials_per_severity: int,
    transport: str = "local",
    timeout: float = 0.25,
    grid: Sequence[Tuple[int, int, int]] = DEFAULT_GRID,
    progress=None,
    kill_links: bool = False,
) -> CampaignReport:
    """Run the sweep; *progress* (if given) is called with each result.

    A *kill_links* campaign is the self-healing soak gate and runs every
    trial twice: what the re-run did not reproduce lands in
    ``report.rerun_mismatches`` (:meth:`CampaignReport.diff`) and fails it.
    """
    report = CampaignReport(
        seed=base_seed,
        transport=transport,
        severities=list(severities),
        trials_per_severity=trials_per_severity,
        timeout=timeout,
    )
    for config in campaign_configs(
        base_seed,
        severities,
        trials_per_severity,
        transport,
        timeout,
        grid,
        kill_links=kill_links,
    ):
        result = await run_trial(config)
        report.trials.append(result)
        if progress is not None:
            progress(result)
    if kill_links:
        report.rerun_mismatches = report.diff(
            [await run_trial(trial.config) for trial in report.trials]
        )
    return report


def run_campaign_sync(*args, **kwargs) -> CampaignReport:
    return asyncio.run(run_campaign(*args, **kwargs))
