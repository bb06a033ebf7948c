"""Differential fuzzing and chaos grids: one case type, one judge, one report.

Each :class:`FuzzCase` names a small agreement instance — ``(m, u, N)``, a
sender value, a behaviour map, an optional chaos preset with its seed, and
a round deadline.  :func:`run_case` executes the case and audits every
trace with the conformance oracle, whose tier check is
:func:`~repro.core.conditions.classify` against the D.1–D.4 tier the
run's effective fault count selects:

* a *sampled* case runs over every runtime the repository has — the
  synchronous lock-step engine (``sync``) and the asyncio runner over the
  in-process bus and over real TCP sockets, each in batched and unbatched
  wire mode (``local``, ``local-unbatched``, ``tcp``, ``tcp-unbatched``).
  Chaos-free sampled cases are additionally checked for *cross-mode
  equivalence* — identical decisions and ``V_d`` substitution counts in
  every mode (chaos draws are per-mode, so chaotic runs are audited
  individually instead);
* a *grid* case (``transport`` set) is one ``repro chaos`` trial: a
  single batched run over its transport, under a reconnecting supervisor
  when ``kill_links`` is set.  :func:`grid_cases` lays out the campaign's
  ``(m, u, N) x severity x seed`` sweep.

:func:`sample_cases` draws cases from ``random.Random(seed)``, so a seed
fully determines the sampled sequence.  :func:`run_cases` runs a case list
into a :class:`FuzzReport`: the fuzz verdict, or the campaign summary —
per-tier pass rates, chaos totals, worst-case seeds, the kill-links
same-seed re-run diff and the JSON report.  A failing case is reported
with its replay token; :func:`parse_case_token` turns the token back into
the exact case, and same-token replays produce identical trace
fingerprints (pinned by the test suite for the deterministic transports).
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from math import isfinite
from typing import TYPE_CHECKING, Callable, ClassVar, Dict, Iterable, List
from typing import Optional, Sequence, Tuple

from repro.core.protocol import execute_degradable_protocol
from repro.core.scenario import (
    FAULT_KINDS,
    INSTANCE_FIELDS,
    SENDER,
    SHAPE_FIELDS,
    Instance,
    absent,
    flag,
    format_token,
    node_ids,
    parse_token,
)
from repro.exceptions import ConfigurationError
from repro.net.chaos import SEVERITIES, run_seeded_instance
from repro.verify.oracle import ConformanceReport, verify_record
from repro.verify.record import RunRecord, record_net_outcome, record_sync_run

if TYPE_CHECKING:
    from repro.net.runner import NetRunOutcome

#: Small (m, u) corners the fuzzer samples; N is 2m+u+1 plus at most one
#: spare node, capped at 7 so a full TCP case stays fast.
SPEC_CORNERS = ((0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

_VALUES = ("alpha", "beta", "gamma")

#: Spec grid a chaos campaign cycles through: the paper's running example,
#: the m = 0 special case, a roomier degraded band, and a deeper recursion.
DEFAULT_GRID: Tuple[Tuple[int, int, int], ...] = (
    (1, 2, 5),
    (0, 2, 4),
    (1, 3, 6),
    (2, 3, 8),
)

TRANSPORTS = ("local", "tcp")

#: A grid case's sender value: it declares no faults, chaos supplies them.
GRID_VALUE = "engage"


def _chaos_field(text: str) -> Tuple[str, int]:
    severity, _, seed = ("" if absent(text) else text).partition(":")
    if seed and not severity:
        # Would replay chaos-free and print chaos=- — not the token given.
        raise ValueError(f"chaos seed {seed!r} without a severity")
    return severity, int(seed or 0)


#: The fuzz replay grammar: token key -> (FuzzCase keyword, conversion).
TOKEN_FIELDS = {
    **INSTANCE_FIELDS,
    "chaos": ("chaos", _chaos_field),
    "timeout": ("timeout", float),
    "transport": ("transport", str),
    "kill_links": ("kill_links", flag),
}

#: The retired ``repro chaos`` grammar, read onto the grid case it names.
CHAOS_TOKEN_FIELDS = {
    **SHAPE_FIELDS,
    "severity": ("chaos_severity", str),
    "transport": ("transport", str),
    "seed": ("chaos_seed", int),
    "timeout": ("timeout", float),
    "kill_links": ("kill_links", flag),
}


# ----------------------------------------------------------------------
# Cases and replay tokens
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzCase(Instance):
    """One fully determined differential trial: an
    :class:`~repro.core.scenario.Instance` plus its chaos and deadline."""

    grammar: ClassVar[str] = "fuzz"

    #: Chaos severity preset ("" = no chaos).
    chaos_severity: str = ""
    chaos_seed: int = 0
    timeout: float = 2.0
    #: Grid case: one batched run over this transport alone ("" = every
    #: runtime, the sampled cases).
    transport: str = ""
    #: Kill-links mode: a hard reset of every pooled connection plus one
    #: node's endpoint crash-restart mid-run, under a reconnecting
    #: :class:`~repro.net.supervision.SupervisedTransport`.
    kill_links: bool = False

    def __post_init__(self) -> None:
        if self.chaos_severity and self.chaos_severity not in SEVERITIES:
            raise ConfigurationError(
                f"unknown severity {self.chaos_severity!r}; "
                f"choose from {SEVERITIES}"
            )
        if self.transport and self.transport not in TRANSPORTS:
            raise ConfigurationError(
                f"unknown transport {self.transport!r}; "
                f"choose from {TRANSPORTS}"
            )
        if not (isfinite(self.timeout) and self.timeout > 0):
            raise ConfigurationError(
                f"timeout must be > 0 and finite, got {self.timeout}"
            )

    @property
    def token(self) -> str:
        """Replay token: reconstructs this exact case via parse_case_token."""
        chaos = (
            f"{self.chaos_severity}:{self.chaos_seed}"
            if self.chaos_severity
            else "-"
        )
        fields = self.token_fields() + [
            ("chaos", chaos),
            ("timeout", self.timeout),
        ]
        # Appended only when set, so older tokens keep parsing to the
        # cases they always named.
        if self.transport:
            fields.append(("transport", self.transport))
        if self.kill_links:
            fields.append(("kill_links", 1))
        return format_token(fields)


def parse_case_token(token: str) -> FuzzCase:
    """Inverse of :attr:`FuzzCase.token`.

    A token in the retired ``repro chaos`` grammar — it has a
    ``severity=`` key — reads onto the grid case it always named: sender
    value ``engage``, no declared faults, an absent ``timeout`` 0.25.
    """
    keys = {part.partition("=")[0].strip() for part in token.split(",")}
    if "severity" in keys:
        fields = parse_token(
            token,
            "chaos",
            CHAOS_TOKEN_FIELDS,
            ("m", "u", "n", "severity", "transport", "seed"),
        )
        return FuzzCase(sender_value=GRID_VALUE, **{"timeout": 0.25, **fields})
    fields = parse_token(token, "fuzz", TOKEN_FIELDS)
    severity, seed = fields.pop("chaos", ("", 0))
    return FuzzCase(**fields, chaos_severity=severity, chaos_seed=seed)


def sample_cases(
    seed: int, count: int, allow_chaos: bool = True
) -> List[FuzzCase]:
    """*count* cases drawn from ``random.Random(seed)``: a spec corner, at
    most ``u`` behaviour faults and, on a coin flip, a chaos preset."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        m, u = rng.choice(SPEC_CORNERS)
        nodes = node_ids(min(2 * m + u + 1 + rng.randint(0, 1), 7))
        faults = tuple(
            sorted(
                (node, rng.choice(FAULT_KINDS))
                for node in rng.sample(nodes, rng.randint(0, u))
            )
        )
        severity, chaos_seed, timeout = "", 0, 2.0
        if allow_chaos and rng.random() < 0.5:
            severity = rng.choice(SEVERITIES)
            chaos_seed = rng.randint(0, 2 ** 20)
            timeout = 0.25
        cases.append(
            FuzzCase(
                m,
                u,
                len(nodes),
                rng.choice(_VALUES),
                faults,
                chaos_severity=severity,
                chaos_seed=chaos_seed,
                timeout=timeout,
            )
        )
    return cases


def trial_seed(base_seed: int, severity: str, index: int) -> int:
    """Stable per-trial seed: hashable from the campaign seed alone."""
    return random.Random(f"{base_seed}|{severity}|{index}").getrandbits(32)


def grid_cases(
    seed: int,
    severities: Sequence[str],
    trials_per_severity: int,
    transport: str = "local",
    timeout: float = 0.25,
    kill_links: bool = False,
) -> List[FuzzCase]:
    """The deterministic ``repro chaos`` sweep: per severity, cycle
    :data:`DEFAULT_GRID` with one :func:`trial_seed` per trial."""
    cases = []
    for severity in severities:
        for index in range(trials_per_severity):
            m, u, n = DEFAULT_GRID[index % len(DEFAULT_GRID)]
            cases.append(
                FuzzCase(
                    m,
                    u,
                    n,
                    GRID_VALUE,
                    chaos_severity=severity,
                    chaos_seed=trial_seed(seed, severity, index),
                    timeout=timeout,
                    transport=transport,
                    kill_links=kill_links,
                )
            )
    return cases


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@dataclass
class CaseOutcome:
    """Everything one differential trial produced."""

    case: FuzzCase
    #: mode → conformance report (mode keys: "sync", "local",
    #: "local-unbatched", "tcp", "tcp-unbatched").
    reports: Dict[str, ConformanceReport] = field(default_factory=dict)
    fingerprints: Dict[str, str] = field(default_factory=dict)
    divergences: List[str] = field(default_factory=list)
    #: net mode → the async run itself (metrics, chaos log, result).
    runs: Dict[str, "NetRunOutcome"] = field(default_factory=dict)

    @property
    def violations(self) -> Dict[str, Tuple[str, ...]]:
        return {
            mode: report.codes
            for mode, report in self.reports.items()
            if not report.ok
        }

    @property
    def ok(self) -> bool:
        return not self.violations and not self.divergences

    def chaos_totals(self) -> Dict[str, int]:
        """Chaos events per kind, summed over the case's chaotic runs."""
        return _sum_counts(
            run.chaos.counts()
            for run in self.runs.values()
            if run.chaos is not None
        )

    def line(self) -> str:
        """The one-line campaign progress form (``rec``: nothing is
        promised past u faults, and the oracle found nothing else)."""
        tiers = [report.tier for report in self.reports.values()]
        status = (
            "FAIL" if not self.ok
            else "rec" if set(tiers) == {"none"}
            else "ok"
        )
        return " ".join(
            [f"  [{status}] {self.case.token}"]
            + [
                f"tier={report.tier} f_eff={len(report.record.faulty)}"
                for report in self.reports.values()
            ]
        )

    def render(self) -> str:
        status = "ok" if self.ok else "FAIL"
        lines = [f"[{status}] {self.case.token}"]
        for mode in sorted(self.reports):
            report = self.reports[mode]
            verdict = "ok" if report.ok else ",".join(report.codes)
            lines.append(
                f"    {mode:<16} tier={report.tier:<9} "
                f"fp={self.fingerprints[mode][:12]} {verdict}"
            )
            run = self.runs.get(mode)
            if run is not None and run.chaos is not None:
                events = " ".join(
                    f"{kind}={count}"
                    for kind, count in sorted(run.chaos.counts().items())
                    if count
                )
                afflicted = sorted(map(str, report.record.faulty))
                lines.append(f"      afflicted={afflicted} chaos: {events}")
        for divergence in self.divergences:
            lines.append(f"    !! {divergence}")
        if not self.ok:
            lines.append(f'    replay: python -m repro fuzz --replay "{self.case.token}"')
        return "\n".join(lines)

    def to_json(self) -> Dict:
        modes = {}
        for mode, report in self.reports.items():
            entry = {
                "tier": report.tier,
                "afflicted": sorted(map(str, report.record.faulty)),
                "violations": [v.render() for v in report.violations],
                "decisions": {
                    str(node): repr(value)
                    for node, value in sorted(
                        report.decisions.items(), key=lambda kv: str(kv[0])
                    )
                },
                "fingerprint": self.fingerprints[mode],
            }
            run = self.runs.get(mode)
            if run is not None:
                entry.update(
                    chaos_counts=run.chaos.counts() if run.chaos else {},
                    substitutions=run.result.stats.substitutions,
                    timeouts=run.metrics.total_timeouts,
                    reconnects=run.metrics.total_reconnects,
                    endpoint_restarts=run.metrics.endpoint_restarts,
                )
            modes[mode] = entry
        return {
            "replay": self.case.token,
            "ok": self.ok,
            "divergences": self.divergences,
            "modes": modes,
        }


def _sum_counts(counts: Iterable[Dict[str, int]]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for each in counts:
        for kind, count in each.items():
            totals[kind] = totals.get(kind, 0) + count
    return totals


def _net_modes(
    case: FuzzCase, transports: Sequence[str]
) -> List[Tuple[str, str, bool]]:
    if case.transport:
        return [(case.transport, case.transport, True)]
    modes = []
    for transport in transports:
        modes.append((transport, transport, True))
        modes.append((f"{transport}-unbatched", transport, False))
    return modes


async def run_case_async(
    case: FuzzCase, transports: Sequence[str] = TRANSPORTS
) -> CaseOutcome:
    """Execute *case* — a grid case over its transport, a sampled one over
    every runtime — and audit every trace."""
    spec = case.spec()
    nodes = case.nodes()
    outcome = CaseOutcome(case=case)
    records: Dict[str, RunRecord] = {}

    if not case.transport:
        sync_result, engine = execute_degradable_protocol(
            spec, nodes, SENDER, case.sender_value, case.behaviors()
        )
        records["sync"] = record_sync_run(
            spec, nodes, SENDER, case.sender_value, case.behavior_faulty,
            engine,
        )

    for mode, transport_name, batched in _net_modes(case, transports):
        # The one seeded-instance recipe, rebuilt from the case seed for
        # each wire mode alone.
        net, faulty, _ = await run_seeded_instance(
            case,
            transport_name,
            case.timeout,
            case.chaos_severity,
            case.chaos_seed,
            case.kill_links,
            batching=batched,
        )
        records[mode] = record_net_outcome(
            spec,
            nodes,
            SENDER,
            case.sender_value,
            faulty,
            net,
            batched=batched,
        )
        outcome.runs[mode] = net

    for mode, record in records.items():
        outcome.reports[mode] = verify_record(record)
        outcome.fingerprints[mode] = record.fingerprint()

    if not case.chaos_severity and "sync" in records:
        # Without chaos every runtime sees the exact same adversary, so the
        # decision vectors and substitution counts must coincide.
        base = sync_result
        for mode, run in outcome.runs.items():
            result = run.result
            if result.decisions != base.decisions:
                diff = {
                    node: (base.decisions.get(node), result.decisions.get(node))
                    for node in set(base.decisions) | set(result.decisions)
                    if base.decisions.get(node) != result.decisions.get(node)
                }
                outcome.divergences.append(
                    f"decisions diverge between sync and {mode}: {diff!r}"
                )
            if result.stats.substitutions != base.stats.substitutions:
                outcome.divergences.append(
                    f"V_d substitutions diverge between sync "
                    f"({base.stats.substitutions}) and {mode} "
                    f"({result.stats.substitutions})"
                )
    return outcome


def run_case(
    case: FuzzCase, transports: Sequence[str] = TRANSPORTS
) -> CaseOutcome:
    return asyncio.run(run_case_async(case, transports))


def rerun_diff(
    first: Sequence[CaseOutcome], rerun: Sequence[CaseOutcome]
) -> List[str]:
    """Cases *rerun* did not reproduce, each named by replay token.

    The kill-links gate's determinism half: the same seeded cases, re-run,
    must reproduce every decision and the full wire fingerprint —
    reconnect and restart counters included — or the self-healing layer
    leaked wall-clock state into the run.
    """
    mismatches = []
    for before, after in zip(first, rerun):
        token = before.case.token
        for mode, run in before.runs.items():
            again = after.runs[mode]
            if run.result.decisions != again.result.decisions:
                mismatches.append(f"{token}: decisions diverged")
                break
            counters, recounted = run.metrics.counters(), again.metrics.counters()
            if counters != recounted:
                changed = sorted(set(counters.items()) ^ set(recounted.items()))
                mismatches.append(
                    f"{token}: fingerprint diverged ({changed[:6]})"
                )
                break
    return mismatches


# ----------------------------------------------------------------------
# The driver and its report
# ----------------------------------------------------------------------
@dataclass
class FuzzReport:
    """Aggregate of one fuzzing session or chaos campaign."""

    seed: int
    transports: Tuple[str, ...]
    outcomes: List[CaseOutcome] = field(default_factory=list)
    #: What the same-seed re-run of the kill-links cases did not
    #: reproduce, one line per case (None = no case was re-run).
    rerun_mismatches: Optional[List[str]] = None

    @property
    def failures(self) -> List[CaseOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.rerun_mismatches

    @property
    def examples(self) -> int:
        return len(self.outcomes)

    def render(self) -> str:
        """The fuzz verdict."""
        modes = 1 + 2 * len(self.transports)
        head = (
            f"fuzz: seed={self.seed} examples={self.examples} "
            f"modes/example={modes} "
            f"transports=sync,{','.join(self.transports)} (batched+unbatched)"
        )
        if self.ok:
            return (
                f"{head}\nPASSED: 0 oracle violations, "
                f"0 cross-mode divergences"
            )
        return "\n".join(
            [head, "FAILED:"] + [outcome.render() for outcome in self.failures]
        )

    def tier_summary(self) -> Dict[str, Dict]:
        reports = [
            report
            for outcome in self.outcomes
            for report in outcome.reports.values()
        ]
        out: Dict[str, Dict] = {}
        for tier in ("byzantine", "degraded", "none"):
            judged = [report for report in reports if report.tier == tier]
            entry: Dict = {"trials": len(judged)}
            if tier == "none":
                entry["recorded"] = len(judged)
            else:
                passed = sum(1 for report in judged if report.ok)
                entry["passed"] = passed
                entry["pass_rate"] = passed / len(judged) if judged else 1.0
            out[tier] = entry
        return out

    def chaos_totals(self) -> Dict[str, int]:
        return _sum_counts(
            outcome.chaos_totals() for outcome in self.outcomes
        )

    def worst_case_seeds(self, limit: int = 3) -> List[str]:
        """Replay tokens worth keeping: failures first, heaviest chaos next."""
        if self.failures:
            return [outcome.case.token for outcome in self.failures]
        heaviest = sorted(
            self.outcomes,
            key=lambda outcome: sum(outcome.chaos_totals().values()),
            reverse=True,
        )
        return [outcome.case.token for outcome in heaviest[:limit]]

    def to_json(self) -> Dict:
        return {
            "seed": self.seed,
            "transports": list(self.transports),
            "n_cases": len(self.outcomes),
            "ok": self.ok,
            "tiers": self.tier_summary(),
            "chaos_totals": self.chaos_totals(),
            "failures": [outcome.case.token for outcome in self.failures],
            "worst_case_seeds": self.worst_case_seeds(),
            "rerun_mismatches": self.rerun_mismatches,
            "cases": [outcome.to_json() for outcome in self.outcomes],
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render_campaign(self) -> str:
        """The campaign summary: self-healing and re-run lines for a
        kill-links soak, then per-tier pass rates and chaos totals (a
        soak its re-run did not reproduce stops at the mismatches)."""
        lines = []
        if self.rerun_mismatches is not None:
            runs = [run for o in self.outcomes for run in o.runs.values()]
            reconnects = sum(run.metrics.total_reconnects for run in runs)
            restarts = sum(run.metrics.endpoint_restarts for run in runs)
            lines.append(
                f"  self-healing: {reconnects} reconnect(s), "
                f"{restarts} endpoint restart(s) across "
                f"{len(self.outcomes)} trial(s)"
            )
            if self.rerun_mismatches:
                lines.append("  !! same-seed re-run NOT reproducible:")
                lines += [f"     {line}" for line in self.rerun_mismatches]
                return "\n".join(lines)
            lines.append(
                f"  same-seed re-run: all {len(self.outcomes)} trial "
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
        """The closing campaign verdict, with a replay command per failure."""
        if self.rerun_mismatches:
            return "campaign FAILED (kill-links determinism)"
        if self.ok:
            return (
                f"campaign PASSED ({len(self.outcomes)} trials, "
                f"0 checked-tier violations)"
            )
        return "\n".join([
            f"campaign FAILED ({len(self.failures)} checked-tier "
            f"violation(s)); replay each with:",
            *(f'  python -m repro chaos --replay "{outcome.case.token}"'
              for outcome in self.failures),
        ])


async def run_cases_async(
    cases: Sequence[FuzzCase],
    seed: int,
    transports: Sequence[str] = TRANSPORTS,
    on_case: Optional[Callable[[CaseOutcome], None]] = None,
) -> FuzzReport:
    """Run and audit every case; *on_case* (if given) sees each outcome.

    The kill-links cases are run a second time, and what the re-run did
    not reproduce lands in ``report.rerun_mismatches`` and fails it.
    """
    report = FuzzReport(seed=seed, transports=tuple(transports))
    for case in cases:
        outcome = await run_case_async(case, transports)
        report.outcomes.append(outcome)
        if on_case is not None:
            on_case(outcome)
    soaked = [outcome for outcome in report.outcomes if outcome.case.kill_links]
    if soaked:
        report.rerun_mismatches = rerun_diff(
            soaked,
            [await run_case_async(o.case, transports) for o in soaked],
        )
    return report


def run_cases(
    cases: Sequence[FuzzCase],
    seed: int,
    transports: Sequence[str] = TRANSPORTS,
    on_case: Optional[Callable[[CaseOutcome], None]] = None,
) -> FuzzReport:
    return asyncio.run(run_cases_async(cases, seed, transports, on_case))


def run_fuzz(
    seed: int = 0,
    max_examples: int = 20,
    transports: Sequence[str] = TRANSPORTS,
    allow_chaos: bool = True,
    on_case: Optional[Callable[[CaseOutcome], None]] = None,
) -> FuzzReport:
    """Sample *max_examples* cases from *seed* and differentially audit
    each of them; every failing case is in the report with its token."""
    return run_cases(
        sample_cases(seed, max_examples, allow_chaos),
        seed,
        transports,
        on_case,
    )
