"""Differential fuzzing: one sampled instance, every runtime, one oracle.

Each :class:`FuzzCase` names a small agreement instance — ``(m, u, N)``, a
sender value, a behaviour map, an optional chaos preset with its seed, and
a round deadline.  :func:`run_case` executes the case over every runtime
the repository has:

* the synchronous lock-step engine (``sync``);
* the asyncio runner over the in-process bus and over real TCP sockets,
  each in batched and unbatched wire mode (``local``, ``local-unbatched``,
  ``tcp``, ``tcp-unbatched``).

Every execution's trace is packaged as a
:class:`~repro.verify.record.RunRecord` and fed through the conformance
oracle; chaos-free cases are additionally checked for *cross-mode
equivalence* — identical decisions and ``V_d`` substitution counts in
every mode (chaos draws are per-mode, so chaotic runs are audited
individually instead).

:func:`run_fuzz` drives Hypothesis over the case space with a fixed seed
(``phases=(generate,)`` — no shrinking, no example database — so a seed
fully determines the sampled sequence).  A failing case is reported with
its replay token; :func:`parse_case_token` turns the token back into the
exact case, and same-token replays produce identical trace fingerprints
(pinned by the test suite for the deterministic transports).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.core.protocol import execute_degradable_protocol
from repro.core.scenario import (
    FAULT_KINDS,
    INSTANCE_FIELDS,
    SENDER,
    Instance,
    absent,
    format_token,
    node_ids,
    parse_token,
)
from repro.exceptions import ReproError
from repro.verify.oracle import ConformanceReport, verify_record
from repro.verify.record import RunRecord, record_net_outcome, record_sync_run

#: Small (m, u) corners the fuzzer samples; N is 2m+u+1 plus at most one
#: spare node, capped at 7 so a full TCP case stays fast.
SPEC_CORNERS = ((0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

_VALUES = ("alpha", "beta", "gamma")


def _chaos_field(text: str) -> Tuple[str, int]:
    severity, _, seed = ("" if absent(text) else text).partition(":")
    return severity, int(seed or 0)


#: The fuzz replay grammar: token key -> (FuzzCase keyword, conversion).
TOKEN_FIELDS = {
    **INSTANCE_FIELDS,
    "chaos": ("chaos", _chaos_field),
    "timeout": ("timeout", float),
}


class FuzzFailure(ReproError):
    """A fuzz case produced oracle violations or a cross-mode divergence."""

    def __init__(self, outcome: "CaseOutcome") -> None:
        self.outcome = outcome
        super().__init__(outcome.render())


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

    @property
    def token(self) -> str:
        """Replay token: reconstructs this exact case via parse_case_token."""
        chaos = (
            f"{self.chaos_severity}:{self.chaos_seed}"
            if self.chaos_severity
            else "-"
        )
        return format_token(
            self.token_fields()
            + [("chaos", chaos), ("timeout", self.timeout)]
        )


def parse_case_token(token: str) -> FuzzCase:
    """Inverse of :attr:`FuzzCase.token`."""
    fields = parse_token(token, "fuzz", TOKEN_FIELDS)
    severity, seed = fields.pop("chaos", ("", 0))
    return FuzzCase(**fields, chaos_severity=severity, chaos_seed=seed)


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
        for divergence in self.divergences:
            lines.append(f"    !! {divergence}")
        if not self.ok:
            lines.append(f'    replay: python -m repro fuzz --replay "{self.case.token}"')
        return "\n".join(lines)


def _net_modes(transports: Sequence[str]) -> List[Tuple[str, str, bool]]:
    modes = []
    for transport in transports:
        modes.append((transport, transport, True))
        modes.append((f"{transport}-unbatched", transport, False))
    return modes


def run_case(
    case: FuzzCase, transports: Sequence[str] = ("local", "tcp")
) -> CaseOutcome:
    """Execute *case* over every runtime and audit every trace."""
    # Imported here: repro.net pulls in asyncio transports which the pure
    # sync/verify layers should not pay for.
    from repro.net.chaos import run_seeded_instance

    spec = case.spec()
    nodes = case.nodes()
    outcome = CaseOutcome(case=case)
    records: Dict[str, RunRecord] = {}
    results = {}

    sync_result, engine = execute_degradable_protocol(
        spec, nodes, SENDER, case.sender_value, case.behaviors()
    )
    records["sync"] = record_sync_run(
        spec, nodes, SENDER, case.sender_value, case.behavior_faulty, engine
    )
    results["sync"] = sync_result

    for mode, transport_name, batched in _net_modes(transports):
        # The chaos campaign's replay recipe, rebuilt from the case seed
        # for each wire mode alone.
        net, faulty, _ = asyncio.run(
            run_seeded_instance(
                case,
                transport_name,
                case.timeout,
                case.chaos_severity,
                case.chaos_seed,
                batching=batched,
            )
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
        results[mode] = net.result

    for mode, record in records.items():
        outcome.reports[mode] = verify_record(record)
        outcome.fingerprints[mode] = record.fingerprint()

    if not case.chaos_severity:
        # Without chaos every runtime sees the exact same adversary, so the
        # decision vectors and substitution counts must coincide.
        base = results["sync"]
        for mode, result in results.items():
            if mode == "sync":
                continue
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


def replay_fingerprints(
    case: FuzzCase, transports: Sequence[str] = ("local",)
) -> Dict[str, str]:
    """Per-mode trace fingerprints for one replay of *case*."""
    return dict(run_case(case, transports=transports).fingerprints)


# ----------------------------------------------------------------------
# The Hypothesis driver
# ----------------------------------------------------------------------
@dataclass
class FuzzReport:
    """Aggregate of one fuzzing session."""

    seed: int
    transports: Tuple[str, ...]
    outcomes: List[CaseOutcome] = field(default_factory=list)
    failure: Optional[CaseOutcome] = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def examples(self) -> int:
        return len(self.outcomes)

    def render(self) -> str:
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
        return f"{head}\nFAILED:\n{self.failure.render()}"


def case_strategy(allow_chaos: bool = True):
    """Hypothesis strategy over :class:`FuzzCase`."""
    from hypothesis import strategies as st

    @st.composite
    def _cases(draw) -> FuzzCase:
        m, u = draw(st.sampled_from(SPEC_CORNERS))
        extra = draw(st.integers(min_value=0, max_value=1))
        n = min(2 * m + u + 1 + extra, 7)
        nodes = node_ids(n)
        n_faults = draw(st.integers(min_value=0, max_value=u))
        order = draw(st.permutations(nodes))
        faults = tuple(
            sorted(
                (node, draw(st.sampled_from(FAULT_KINDS)))
                for node in order[:n_faults]
            )
        )
        severity, chaos_seed, timeout = "", 0, 2.0
        if allow_chaos and draw(st.booleans()):
            from repro.net.chaos.policy import SEVERITIES

            severity = draw(st.sampled_from(SEVERITIES))
            chaos_seed = draw(st.integers(min_value=0, max_value=2 ** 20))
            timeout = 0.25
        return FuzzCase(
            m=m,
            u=u,
            n_nodes=n,
            sender_value=draw(st.sampled_from(_VALUES)),
            faults=faults,
            chaos_severity=severity,
            chaos_seed=chaos_seed,
            timeout=timeout,
        )

    return _cases()


def run_fuzz(
    seed: int = 0,
    max_examples: int = 20,
    transports: Sequence[str] = ("local", "tcp"),
    allow_chaos: bool = True,
    on_case: Optional[Callable[[CaseOutcome], None]] = None,
) -> FuzzReport:
    """Sample *max_examples* cases and differentially audit each of them.

    Deterministic for a fixed *seed*: shrinking and the example database
    are disabled, so the sampled sequence is a pure function of the seed.
    Stops at the first failing case (its replay token is in the report).
    """
    from hypothesis import HealthCheck, Phase, given
    from hypothesis import seed as hypothesis_seed
    from hypothesis import settings

    report = FuzzReport(seed=seed, transports=tuple(transports))
    # Cache by replay token: Hypothesis may re-run an example (notably to
    # confirm a failure), and a repeated token must yield the same verdict
    # without being executed or reported twice.
    cache: Dict[str, CaseOutcome] = {}

    @hypothesis_seed(seed)
    @settings(
        max_examples=max_examples,
        database=None,
        deadline=None,
        phases=(Phase.generate,),
        suppress_health_check=list(HealthCheck),
        print_blob=False,
    )
    @given(case=case_strategy(allow_chaos=allow_chaos))
    def _drive(case: FuzzCase) -> None:
        outcome = cache.get(case.token)
        if outcome is None:
            outcome = run_case(case, transports=transports)
            cache[case.token] = outcome
            report.outcomes.append(outcome)
            if on_case is not None:
                on_case(outcome)
        if not outcome.ok:
            raise FuzzFailure(outcome)

    try:
        _drive()
    except FuzzFailure as exc:
        report.failure = exc.outcome
    return report
