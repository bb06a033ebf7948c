"""The experiment registry: each paper result computed and judged once.

Every entry of :data:`EXPERIMENTS` computes one of the paper's results,
judges every claim made about it and renders its artefact.  It runs at one
of two sizes from its own size table: ``"quick"`` (seconds: the battery
``python -m repro experiments``, the report's header, tier-1) or ``"full"``
(the ``benchmarks/``, which time the entry, require its verdict and print
its artefact).  The report prints quick-size artefacts (E4, E5, E7, E11);
the verbs and the report's other sections call the per-instance helpers
the entries loop over — ``theorem2_case``, ``theorem3_case``,
``search_case``, ``survive_u_costs``, ``evaluate_conjecture``,
``degradation_case`` and ``fly_mission`` — so no verdict is spelled out
twice.

Each entry returns an :class:`ExperimentResult`; :func:`write_results`
persists a batch as JSON.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.adversary_search import search_case
from repro.analysis.complexity import crusader_complexity, survive_u_costs
from repro.analysis.degradation import degradation_case
from repro.analysis.lowerbounds import (
    make_groups,
    theorem2_case,
    theorem2_scenarios,
    theorem3_case,
)
from repro.analysis.mixed_faults import crash_only_envelope, mixed_fault_grid
from repro.analysis.montecarlo import run_campaign
from repro.analysis.reliability import (
    compare_configurations,
    degradable_vs_byzantine,
    fly_mission,
)
from repro.analysis.tables import (
    render_table,
    section2_min_nodes_table,
    seven_node_tradeoff_table,
)
from repro.channels.system import ByzantineChannelSystem, DegradableChannelSystem
from repro.channels.voter import VoteOutcome
from repro.clocksync.convergence import InteractiveConvergence
from repro.clocksync.evaluation import _build_ensemble, evaluate_conjecture
from repro.clocksync.witnesses import WitnessedClockSystem, witnesses_needed
from repro.core.behavior import ChainLiar, LieAboutSender, TwoFacedBehavior
from repro.core.bounds import (
    configurations,
    min_connectivity,
    min_nodes,
    min_nodes_table,
)
from repro.core.byz import message_count, run_degradable_agreement
from repro.core.crusader import run_crusader
from repro.core.protocol import execute_degradable_protocol
from repro.core.scenario import node_ids
from repro.core.spec import DegradableSpec, sub_minimal_spec
from repro.core.vector_agreement import (
    classify_vectors,
    run_degradable_interactive_consistency,
)
from repro.exceptions import AnalysisError
from repro.sim.clock import ConstantFace, TwoFacedClock
from repro.sim.trace import EventKind


@dataclass
class ExperimentResult:
    experiment_id: str
    title: str
    passed: bool
    duration_seconds: float
    details: Dict[str, object] = field(default_factory=dict)
    #: ``(heading, body)`` blocks the benchmark prints; not in the JSON.
    artefacts: List[Tuple[str, str]] = field(default_factory=list)


#: ``EXPERIMENTS[exp_id](size="quick")`` runs one experiment; *size* is
#: ``"quick"`` or ``"full"``.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {}


def _experiment(exp_id: str, title: str, quick: dict, full: dict):
    """Register *measure* as *exp_id*, run with one of its two size rows.

    *measure* returns ``(claims, details, artefacts)``; the experiment
    passes when every claim holds, and ``details["failed"]`` names the
    claims that did not.
    """
    sizes = {"quick": quick, "full": full}

    def register(measure):
        def run(size: str = "quick") -> ExperimentResult:
            if size not in sizes:
                raise AnalysisError(f"size must be 'quick' or 'full', got {size!r}")
            start = time.perf_counter()
            claims, details, artefacts = measure(**sizes[size])
            failed = [claim for claim, holds in claims.items() if not holds]
            if failed:
                details["failed"] = failed
            return ExperimentResult(
                exp_id, title, not failed, time.perf_counter() - start,
                details, artefacts,
            )

        EXPERIMENTS[exp_id] = run
        return measure

    return register


@_experiment(
    "E1", "Section 2 minimum-node table (sufficiency + necessity)",
    quick=dict(grid=[(m, u) for m in range(3) for u in range(m, m + 3)],
               trials=30, m_seed=10),
    full=dict(grid=[(m, u) for m in range(4) for u in range(m, 7)],
              trials=60, m_seed=100),
)
def _e1_min_nodes(grid, trials, m_seed):
    """BYZ fuzzed at 2m+u+1 (sufficiency) and the Theorem 2 triple at
    2m+u (necessity; the construction needs m >= 1) for every cell."""

    def validated(m: int, u: int) -> bool:
        spec = DegradableSpec(m=m, u=u, n_nodes=min_nodes(m, u))
        summary = run_campaign(spec, n_trials=trials, seed=m * m_seed + u)
        return not summary.violations and (m == 0 or theorem2_case(m, u)[2])

    cells = sum(1 for m, u in grid if validated(m, u))
    table = min_nodes_table()
    claims = {
        "every cell sufficient at 2m+u+1 and necessary at 2m+u": cells == len(grid),
        "published minima: 1/2 5, 2/2 7, 0/6 7, 3/6 13, a dash where u < m": (
            table[2][1], table[2][2], table[6][0], table[6][3], table[0][1]
        ) == (5, 7, 7, 13, None),
    }
    body = (
        section2_min_nodes_table()
        + f"\n\nvalidated cells: {cells}/{len(grid)} "
        f"(sufficiency fuzzed at 2m+u+1; necessity via scenario triple at 2m+u)"
    )
    return claims, {"cells_validated": cells}, [
        ("E1 / Section 2 table — minimum nodes for m/u-degradable agreement", body)
    ]


#: The paper's 7-node trade-off, per configuration and f = 0..6.
SEVEN_NODE_STAIRCASE = {
    "2/2": "FULL FULL FULL . . . .",
    "1/4": "FULL FULL 2cls 2cls 2cls . .",
    "0/6": "FULL 2cls 2cls 2cls 2cls 2cls 2cls",
}


@_experiment(
    "E2", "seven-node trade-off staircase",
    quick=dict(trials=25, m_seed=100),
    full=dict(trials=40, m_seed=1000),
)
def _e2_tradeoff(trials, m_seed):
    """Which guarantee holds as f climbs 0..6, per maximal 7-node config."""
    rows = []
    for m, u in sorted(configurations(7), reverse=True):
        spec = DegradableSpec(m=m, u=u, n_nodes=7)
        cells = []
        for f in range(7):
            summary = run_campaign(
                spec, n_trials=trials, fault_counts=[f], seed=m_seed * m + f
            )
            promised = {"byzantine": "FULL", "degraded": "2cls"}.get(
                spec.guarantee_for(f), "."
            )
            cells.append("viol!" if summary.violations else promised)
        rows.append([f"{m}/{u}"] + cells)
    staircase = {row[0]: " ".join(row[1:]) for row in rows}
    table = render_table(
        ["config"] + [f"f={f}" for f in range(7)],
        rows,
        title=(
            "Guarantee achieved vs fault count (FULL = D.1/D.2, "
            "2cls = D.3/D.4, . = no promise)"
        ),
    )
    claims = {
        "2/2, 1/4 and 0/6 each hold their guarantee through its band":
            staircase == SEVEN_NODE_STAIRCASE,
    }
    return claims, {"staircase": staircase}, [
        ("E2 / Section 2 — the 7-node trade-off",
         seven_node_tradeoff_table(7) + "\n\n" + table)
    ]


def _sweep_channels(system) -> Dict[int, Dict[VoteOutcome, int]]:
    """Voter outcomes per f <= 2 over every f-channel subset: each faulty
    channel lies about the sensor in agreement and forges its output."""
    tally = {}
    for f in range(3):
        counts = {outcome: 0 for outcome in VoteOutcome}
        for faulty in itertools.combinations(system.channels, f):
            report = system.run(
                21,
                faulty=set(faulty),
                agreement_behaviors={
                    ch: LieAboutSender(99, system.sender) for ch in faulty
                },
                output_faults={ch: (lambda honest: 42_000) for ch in faulty},
            )
            counts[report.verdict.outcome] += 1
        tally[f] = counts
    return tally


@_experiment(
    "E3", "Figure 1 channel systems under double collusion",
    # 18 runs: both sizes sweep every subset of up to two channels.
    quick={},
    full={},
)
def _e3_channels():
    """Figure 1(a) (3 channels, majority, Byzantine agreement) against
    1(b) (4 channels, 3-of-4 voter, 1/2-degradable agreement)."""
    byz = _sweep_channels(ByzantineChannelSystem(m=1, computation=lambda v: v * 2))
    degr = _sweep_channels(
        DegradableChannelSystem(m=1, u=2, computation=lambda v: v * 2)
    )
    claims = {
        "B.1: Fig 1(a) masks every single fault": byz[1][VoteOutcome.CORRECT] == 3,
        "C.1: Fig 1(b) masks every single fault": degr[1][VoteOutcome.CORRECT] == 4,
        "beyond m, Fig 1(a) outputs a wrong value": byz[2][VoteOutcome.INCORRECT] > 0,
        "C.2: Fig 1(b) outputs the correct value or the default for all 6 pairs": (
            degr[2][VoteOutcome.INCORRECT] == 0
            and degr[2][VoteOutcome.CORRECT] + degr[2][VoteOutcome.DEFAULT] == 6
        ),
    }

    def worst(counts):
        return next(o for o in (VoteOutcome.INCORRECT, VoteOutcome.DEFAULT,
                                VoteOutcome.CORRECT) if counts[o])

    rows = [
        [label, f, counts[VoteOutcome.CORRECT], counts[VoteOutcome.DEFAULT],
         counts[VoteOutcome.INCORRECT]]
        for label, tally in (("Fig 1(a) Byzantine 3-ch", byz),
                             ("Fig 1(b) degradable 4-ch", degr))
        for f, counts in tally.items()
    ]
    body = render_table(
        ["system", "f", "correct", "default", "INCORRECT"],
        rows,
        title="All fault subsets per f; forged outputs + agreement lies",
    ) + (
        "\n\nB.1/C.1 hold at f<=1; at f=2 only the degradable system "
        "stays safe (C.2)."
    )
    details = {
        "byzantine_outcome": worst(byz[2]).value,
        "degradable_outcome": worst(degr[2]).value,
    }
    return claims, details, [
        ("E3 / Figure 1 — external-entity outcomes under channel collusion", body)
    ]


def _views_identical(m: int, u: int) -> Tuple[bool, bool]:
    """At N = 2m+u: (B-group views equal in (a) and (b), A-group views
    equal in (b) and (c)) — the indistinguishability the proof uses."""
    n = 2 * m + u
    spec = sub_minimal_spec(m, u, n)
    groups = make_groups(m, u, n)
    views = []
    for scenario in theorem2_scenarios(groups):
        _, engine = execute_degradable_protocol(
            spec, groups.all_nodes, groups.sender, scenario.sender_value,
            scenario.behaviors,
        )
        views.append({
            node: engine.trace.local_view(node)
            for node in groups.group_a + groups.group_b
        })
    return (
        all(views[0][b] == views[1][b] for b in groups.group_b),
        all(views[1][a] == views[2][a] for a in groups.group_a),
    )


@_experiment(
    "E4", "Figure 2 / Theorem 2 scenario triples",
    quick=dict(cases=[(1, 2), (2, 3)]),
    full=dict(cases=[(1, 1), (1, 2), (1, 4), (2, 2), (2, 3), (3, 3)]),
)
def _e4_impossibility(cases):
    """The Figure 2 triple (and its group-simulation lift) run against BYZ
    at N = 2m+u and 2m+u+1, with the local views the proof relies on."""
    claims, rows, details = {}, [], []
    for m, u in cases:
        below, at, witnessed = theorem2_case(m, u)
        b_match, a_match = _views_identical(m, u)
        claims[f"{m}/{u}: breaks at N=2m+u, holds at N=2m+u+1"] = witnessed
        claims[f"{m}/{u}: B views (a)==(b), A views (b)==(c)"] = b_match and a_match
        details.append({"m": m, "u": u, "ok": witnessed})
        rows.append([
            f"{m}/{u}",
            2 * m + u,
            "breaks" if not below.all_satisfied else "HOLDS?!",
            next((o.scenario.name for o in below.violated), "-"),
            2 * m + u + 1,
            "holds" if at.all_satisfied else "BREAKS?!",
            "yes" if b_match else "NO",
            "yes" if a_match else "NO",
        ])
    body = render_table(
        ["m/u", "N=2m+u", "triple", "which scenario breaks", "N=2m+u+1",
         "triple", "B views (a)==(b)", "A views (b)==(c)"],
        rows,
        title="Each row: the three collusion scenarios run against BYZ",
    ) + (
        "\n\nThe paper's 4-node Figure 2 is the m/u = 1/2 row; the rest "
        "are the Part II group-simulation instances."
    )
    return claims, {"cases": details}, [
        ("E4 / Figure 2 + Theorem 2 — scenario triple at and below the bound", body)
    ]


@_experiment(
    "E4b", "exhaustive adversary search (1/1 instance)",
    quick=dict(us=(1,), first_only=True),
    full=dict(us=(1, 2), first_only=False),
)
def _e4b_search(us, first_only):
    """Every deterministic m = 1 adversary over {alpha, beta, V_d}, at the
    bound (none may violate) and one node below it (one must)."""
    claims, rows, witnesses = {}, [], []
    for u in us:
        at, unbreakable = search_case(u)
        below, broken = search_case(u, below=True, first_only=first_only)
        claims[f"1/{u}: no violating adversary at N={u + 3}"] = unbreakable
        claims[f"1/{u}: a violating adversary at N={u + 2}"] = broken
        rows.append([
            f"1/{u}", u + 3, at.profiles_checked, len(at.violations),
            u + 2, below.profiles_checked, len(below.violations),
        ])
        for witness in below.violations[:1]:
            witnesses.append(
                f"1/{u} @ N={u + 2}: faulty={witness.faulty}, "
                f"violated: {witness.report.violations[0]}"
            )
    body = render_table(
        ["instance", "N at bound", "profiles", "violations", "N below",
         "profiles", "violations"],
        rows,
        title="Every deterministic adversary over domain {alpha, beta, V_d}",
    ) + "\n\nFirst violating witnesses below the bound:\n  " + "\n  ".join(witnesses)
    details = {
        "profiles_at_bound": sum(row[2] for row in rows),
        "violations_at_bound": sum(row[3] for row in rows),
    }
    return claims, details, [
        ("E4b / Theorems 1+2 — exhaustive adversary enumeration (m=1)", body)
    ]


@_experiment(
    "E5", "Theorem 3 connectivity bound (1/2 and 2/3 instances)",
    quick=dict(cases=[(1, 2), (2, 3)]),
    # m = u cases are left out where m+u < 2m+1: the below-bound probe
    # would sit under even the classic Byzantine connectivity floor.
    full=dict(cases=[(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]),
)
def _e5_connectivity(cases):
    """The cut-set pair over Harary topologies and the disjoint-path relay
    (u+1-copy acceptance), faulty cut nodes corrupting what they forward."""
    claims, rows = {}, []
    details = {"at_bound_holds": True, "below_breaks": True}
    for m, u in cases:
        k = min_connectivity(m, u)
        below, at, witnessed = theorem3_case(m, u)
        claims[f"{m}/{u}: holds at k={k}, breaks at k={k - 1}"] = witnessed
        details["at_bound_holds"] &= at.both_satisfied
        details["below_breaks"] &= not below.both_satisfied
        broken = [
            name for name, report in (("F1(f=m)", below.f1_report),
                                      ("F2(f=u)", below.f2_report))
            if not report.satisfied
        ]
        rows.append([
            f"{m}/{u}",
            k,
            "holds" if at.both_satisfied else "BREAKS?!",
            k - 1,
            "breaks" if not below.both_satisfied else "HOLDS?!",
            "+".join(broken) or "-",
        ])
    body = render_table(
        ["m/u", "k=m+u+1", "scenarios", "k=m+u", "scenarios", "which breaks"],
        rows,
        title=(
            "Faulty cut nodes corrupt all forwarded copies; acceptance "
            "threshold u+1 of k disjoint-path copies"
        ),
    ) + (
        "\n\nAt k = m+u the honest value cannot reach u+1 intact copies "
        "once the m cut nodes corrupt theirs, so condition D.1 breaks — "
        "exactly the paper's two-scenario contradiction."
    )
    return claims, details, [
        ("E5 / Theorem 3 — connectivity bound m+u+1 over disjoint-path relays", body)
    ]


def _counts_agree(m: int, u: int) -> bool:
    """BYZ's closed-form message count == the functional run's == the
    message-passing engine's trace, fault-free at 2m+u+1 nodes."""
    spec = DegradableSpec(m=m, u=u, n_nodes=2 * m + u + 1)
    nodes = [f"p{k}" for k in range(spec.n_nodes)]
    functional = run_degradable_agreement(spec, nodes, nodes[0], "v")
    _, engine = execute_degradable_protocol(spec, nodes, nodes[0], "v")
    analytic = message_count(spec.n_nodes, m)
    return functional.stats.messages == analytic == engine.trace.count(EventKind.SENT)


@_experiment(
    "E6", "cost of surviving u=3 faults (BYZ vs OM)",
    quick=dict(us=(3,), cross_checked=(), crusaders=()),
    full=dict(us=(1, 2, 3, 4),
              cross_checked=((0, 2), (1, 1), (1, 2), (1, 4), (2, 2), (2, 3)),
              crusaders=(1, 2, 3)),
)
def _e6_complexity(us, cross_checked, crusaders):
    """OM(u) on 3u+1 nodes against BYZ(m, m) on 2m+u+1 nodes."""
    claims = {
        f"BYZ {m}/{u}: closed form == functional == engine count": _counts_agree(m, u)
        for m, u in cross_checked
    }
    for f in crusaders:  # fault-free, at 3f+1 nodes
        point = crusader_complexity(f)
        nodes = [f"p{k}" for k in range(point.n_nodes)]
        claims[f"Crusader f={f}: closed form == run_crusader's count"] = (
            run_crusader(f, nodes, nodes[0], "v").stats.messages == point.messages
        )
    rows = []
    for u in us:
        points, cheaper = survive_u_costs(u)
        if u >= 2:
            claims[f"u={u}: BYZ(1, u) beats OM(u) on nodes, rounds, messages"] = cheaper
        rows += [
            [u, "OM" if p.algorithm == "OM" else f"BYZ(m={p.m})",
             p.n_nodes, p.rounds, p.messages]
            for p in points
        ]
    crusader = crusader_complexity(2)
    rows.append(["-", "Crusader(f=2)", crusader.n_nodes, crusader.rounds,
                 crusader.messages])
    body = render_table(
        ["target u", "algorithm", "nodes", "rounds", "messages"],
        rows,
        title="OM(u) on 3u+1 nodes vs BYZ(m,m) on 2m+u+1 nodes",
    ) + (
        "\n\nBYZ with small m wins on every axis: fewer nodes, fewer "
        "rounds, exponentially fewer messages — the quantitative form of "
        "'the increase in resource requirements is minimal'."
    )
    details = {"om_messages": points[0].messages, "byz_m1_messages": points[1].messages}
    return claims, details, [
        ("E6 / Section 4 — cost of surviving u faults safely", body)
    ]


@_experiment(
    "E7", "degradable clock-sync conjecture (candidate algorithm)",
    quick=dict(grids=((1, 2, 5), (1, 2, 7))),
    full=dict(grids=((1, 2, 5), (1, 2, 6), (1, 2, 7),
                     (1, 1, 4), (0, 2, 3), (1, 3, 6), (2, 2, 7))),
)
def _e7_clock_sync(grids):
    """Section 6.1's conditions for the candidate (one degradable agreement
    per clock reading, suspect counting, egocentric averaging) against every
    ``ADVERSARY_FAMILIES`` face for f = 0..u, per (m, u, clocks)."""
    claims, blocks, cells = {}, [], 0
    for m, u, n in grids:
        evaluation = evaluate_conjecture(DegradableSpec(m=m, u=u, n_nodes=n))
        claims[f"{m}/{u} on {n} clocks: condition 1 to f=m, 2 to f=u, every cell"] = (
            not evaluation.counterexamples
        )
        cells += len(evaluation.cells)
        blocks.append(evaluation.render())
    body = "\n\n".join(blocks) + (
        "\n\nCondition 1 (all fault-free clocks synchronized) for f<=m, "
        "condition 2 (m+1 synced OR m+1 detectors) for m<f<=u; 2m+u+1 "
        "clocks is the size the conjecture names.  Empirical support for "
        "the open conjecture, not a proof."
    )
    return claims, {"grid_cells": cells}, [
        ("E7 / Section 6.1 — degradable clock synchronization (conjecture)", body)
    ]


@_experiment(
    "E7b", "interactive convergence on both sides of a third",
    quick=dict(clocks=(7,)),
    full=dict(clocks=(7, 10)),
)
def _e7b_convergence(clocks):
    """CNV on N clocks, with f = floor((N-1)/3) two-faced clocks (inside a
    third) and f = ceil(N/3) (past it): the same faces, delta, 6 rounds."""
    face, delta = TwoFacedClock({"c0": 3.0, "c1": 3.0}, -3.0), 4.0
    claims, rows, details = {}, [], {}
    for n in clocks:
        skew = {}
        for f in ((n - 1) // 3, -(-n // 3)):
            ensemble = _build_ensemble(n - f, f, lambda k: face)
            history = InteractiveConvergence(ensemble, delta).run(
                period=10.0, n_rounds=6
            )
            skew[f] = details[f"N={n},f={f}"] = history.final_skew
            within = history.converged(delta)
            claims[f"N={n}, f={f}: skew within delta every round"] = within
            rows.append([
                n, f, "inside" if 3 * f < n else "past",
                f"{history.max_skew:.4f}", f"{history.final_skew:.4f}",
                "yes" if within else "NO",
            ])
        inside, past = sorted(skew)
        claims[f"N={n}: final skew above 1.0 at f={past}"] = skew[past] > 1.0
        claims[f"N={n}: skew/f equal within 1% at f={inside} and f={past}"] = (
            abs(skew[past] / past - skew[inside] / inside)
            <= 0.01 * skew[inside] / inside
        )
    body = render_table(
        ["clocks", "f two-faced", "a third", "max skew", "final skew",
         "within delta"],
        rows,
        title=f"Interactive convergence, delta = {delta}, faces +3 to c0 "
        f"and c1, -3 to the rest",
    ) + (
        "\n\nThe fault-free skew grows linearly in f (one round's push of "
        "the faces, about 6f/N) and stays within delta on both sides: "
        "these faces show no break at a third.  The impossibility past a "
        "third is cited ([3], [5]), not exhibited here."
    )
    return claims, details, [
        ("E7b / Section 6 context — CNV on both sides of a third", body)
    ]


@_experiment(
    "E7c", "witness clocks keep clock faults under a third",
    quick=dict(systems=((5, 2),)),
    full=dict(systems=((4, 2), (5, 2), (7, 3))),
)
def _e7c_witnesses(systems):
    """Section 6.2: per (processors, clock faults), the witnesses
    ``witnesses_needed`` asks for, the faults all on witness clocks (one
    stuck, the rest two-faced), interactive convergence over the units."""
    claims, lines = {}, []
    for n_proc, faults in systems:
        system = WitnessedClockSystem(
            processors=[f"p{k}" for k in range(n_proc)],
            n_witnesses=witnesses_needed(n_proc, faults),
            delta=0.2,
        )
        for k, proc in enumerate(system.processors):
            system.add_good_clock(proc, offset=0.01 * k)
        for k, witness in enumerate(system.witnesses):
            if k >= faults:
                system.add_good_clock(witness)
            elif k == 0:
                system.add_faulty_clock(witness, ConstantFace(99.0))
            else:
                system.add_faulty_clock(witness, TwoFacedClock({"p0": 2.0}, -2.0))
        report = system.run(period=10.0, n_rounds=5)
        history = report.history
        claims[f"{n_proc} processors, {faults} clock faults: under a third "
               f"of the clocks, within delta every round, final skew < 0.01"] = (
            report.within_spec and history.converged(0.2)
            and history.final_skew < 0.01
        )
        lines.append(
            f"{report.n_processors} processors + {report.n_witnesses} witness "
            f"clocks tolerate {report.n_clock_faults} clock faults; final "
            f"skew {history.final_skew:.5f}."
        )
    return claims, {}, [("E7c / Section 6.2 — witness clocks", "\n".join(lines))]


@_experiment(
    "E8", "cost-effectiveness (reliability model + mission)",
    quick=dict(steps=120),
    full=dict(steps=300),
)
def _e8_reliability(steps):
    """The reliability split of 3m+1, 2m+u+1 and 3u+1 designs at p = 0.03,
    and the Figure 1(b) system flown through transient faults."""
    p_node = 0.03
    head = degradable_vs_byzantine(1, 2, p_node)
    byz_m, degr, byz_u = head["byzantine_m"], head["degradable"], head["byzantine_u"]
    stats, safe = fly_mission(steps, 0.05, seed=2024, clear_probability=0.7)
    claims = {
        "one extra node over 3m+1": degr.n_nodes == byz_m.n_nodes + 1,
        "3u+1 costs three extra nodes": byz_u.n_nodes == byz_m.n_nodes + 3,
        "P(unsafe) below 3m+1's": degr.p_unsafe < byz_m.p_unsafe,
        "P(unsafe) within 10x of 3u+1's": degr.p_unsafe < 10 * byz_u.p_unsafe,
        # The trade: degradable agreement buys safety, not correctness.
        "P(correct) below 3u+1's": degr.p_correct < byz_u.p_correct,
        f"all {steps} mission steps flown, none unsafe": stats.steps == steps and safe,
        "mission availability above 0.95": stats.availability > 0.95,
    }
    rows = [
        [label, p.n_nodes, p.p_correct, p.p_safe_degraded, p.p_unsafe]
        for label, p in (("Byzantine m=1 (3m+1)", byz_m),
                         ("degradable 1/2 (2m+u+1)", degr),
                         ("Byzantine u=2 (3u+1)", byz_u))
    ] + [
        [f"{p.m}/{p.u} on 7 nodes", p.n_nodes, p.p_correct, p.p_safe_degraded,
         p.p_unsafe]
        for p in compare_configurations(7, p_node)
    ]
    model = render_table(
        ["design", "nodes", "P(correct)", "P(safe degraded)", "P(unsafe)"],
        rows,
        title=f"per-node fault probability p = {p_node}",
    ) + (
        "\n\nOne extra node (4 -> 5) buys a ~10x drop in unsafe "
        "probability; matching that via full Byzantine agreement (u=2) "
        "costs three extra nodes and an extra round."
    )
    mission = (
        f"forward: {stats.forward}, backward-recovered: {stats.recovered}, "
        f"safe stops: {stats.safe_stops}, unsafe: {stats.unsafe}\n"
        f"availability: {stats.availability:.3f}, safety: {stats.safety:.3f}"
    )
    details = {
        "p_unsafe_byzantine": byz_m.p_unsafe,
        "p_unsafe_degradable": degr.p_unsafe,
        "mission_unsafe_steps": stats.unsafe,
    }
    return claims, details, [
        ("E8 / Sections 3+7 — cost-effectiveness of degradable agreement", model),
        (f"E8b / Section 3 — {steps}-step mission, p_fault=0.05/node/step", mission),
    ]


@_experiment(
    "E9", "degradation profile staircase (1/2 instance)",
    quick=dict(instances=((1, 2, 5),), trials=30, seed=5),
    full=dict(instances=((1, 2, 5), (1, 4, 7)), trials=60, seed=11),
)
def _e9_degradation(instances, trials, seed):
    """Outcome shape against the fault count, 0..N-1, per instance."""
    claims, floors, blocks = {}, [], []
    for m, u, n in instances:
        spec = DegradableSpec(m=m, u=u, n_nodes=n)
        profile, as_defined = degradation_case(spec, trials, seed)
        claims[f"{m}/{u}/{n}: unanimous to m, two-class to u, core >= m+1"] = as_defined
        floors.append(profile.core_agreement_floor())
        blocks.append(profile.render())
    body = "\n\n".join(blocks) + (
        "\n\nStaircase matches the definition: unanimous through the "
        "byzantine band, at worst two-class through the degraded band, and "
        "the agreeing core never dips below m+1 within u faults."
    )
    return claims, {"core_floor": min(floors)}, [
        ("E9 / extension figure — outcome shape vs fault count", body)
    ]


@_experiment(
    "E9b", "degradable interactive consistency (V.1/V.2)",
    quick=dict(instances=((1, 2, 5),)),
    full=dict(instances=((1, 2, 5), (1, 4, 7))),
)
def _e9b_vectors(instances):
    """One degradable agreement per sender, over every placement of f <= u
    faults: a faulty S is two-faced, a faulty receiver chain-lies."""
    claims, lines = {}, []
    for m, u, n in instances:
        spec = DegradableSpec(m=m, u=u, n_nodes=n)
        nodes = node_ids(n)
        private = {node: f"val-{node}" for node in nodes}
        placements = [
            faulty for f in range(u + 1)
            for faulty in itertools.combinations(nodes, f)
        ]
        broken = []
        for faulty in placements:
            behaviors = {
                node: TwoFacedBehavior({"p1": "x", "p2": "y"}) if node == "S"
                else ChainLiar("junk", "S")
                for node in faulty
            }
            vectors = run_degradable_interactive_consistency(
                spec, nodes, private, behaviors
            )
            if not classify_vectors(spec, vectors, private, set(faulty)).satisfied:
                broken.append(faulty)
        claims[f"{m}/{u}/{n}: V.1 to f=m, V.2 to f=u, all {len(placements)} "
               f"placements"] = not broken
        lines.append(f"{spec}: {len(placements)} fault placements checked.")
    body = "\n".join(lines) + (
        "\nIdentical valid vectors with f <= m (V.1); pairwise-compatible "
        "two-class vectors with m < f <= u (V.2).  Full identical-vector IC "
        "beyond N/3 stays impossible (Bhandari) — compatibility is the "
        "degradable analogue."
    )
    return claims, {}, [
        ("E9b / extension — degradable interactive consistency", body)
    ]


@_experiment(
    "E11", "mixed Byzantine/crash fault budgets (1/2 on 6 nodes)",
    quick=dict(trials=30, seeds=(2026, 23)),
    full=dict(trials=40, seeds=(17, 23)),
)
def _e11_mixed_faults(trials, seeds):
    """Guarantee level per (byzantine b, crash c) budget, and against the
    crash count alone — empirical, no theorem claimed."""
    spec = DegradableSpec(m=1, u=2, n_nodes=6)
    study = mixed_fault_grid(spec, trials_per_cell=trials, seed=seeds[0])
    envelope = crash_only_envelope(spec, trials_per_count=trials, seed=seeds[1])
    claims = {
        "FULL to the vote slack at (b,c) = (0,0), (1,0), (0,1); 2cls at (2,0)": [
            study.cell(b, c).level for b, c in ((0, 0), (1, 0), (0, 1), (2, 0))
        ] == ["FULL", "FULL", "FULL", "2cls"],
        "two-class in every non-vacuous cell with b <= u": all(
            cell.level in ("FULL", "2cls")
            for cell in study.cells
            if not cell.vacuous and cell.n_byzantine <= spec.u
        ),
        "crash-only: never below two-class": all(
            level in ("FULL", "2cls", "n/a") for level in envelope.values()
        ),
    }
    body = study.render() + (
        "\n\ncrash-only envelope: "
        + ", ".join(f"c={c}:{level}" for c, level in sorted(envelope.items()))
        + "\n\nCrashes cost far less than the worst-case bound: the "
        "two-class guarantee survives any crash load (a silent node can "
        "only contribute V_d), while full agreement ends exactly at the "
        "vote slack."
    )
    return claims, {"cells": len(study.cells)}, [
        ("E11 / extension — guarantee level per (byzantine, crash) budget", body)
    ]


def run_experiments(only: Optional[List[str]] = None) -> List[ExperimentResult]:
    """Run all (or the selected) experiments at the quick size."""
    selected = list(EXPERIMENTS) if only is None else list(only)
    unknown = [e for e in selected if e not in EXPERIMENTS]
    if unknown:
        raise AnalysisError(f"unknown experiment ids: {unknown!r}")
    return [EXPERIMENTS[exp_id]() for exp_id in selected]


def write_results(results: List[ExperimentResult], path: str) -> None:
    """Persist experiment results (without their artefacts) as JSON."""
    payload = {
        "schema": "repro-experiments/1",
        "results": [
            {key: value for key, value in asdict(r).items() if key != "artefacts"}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, default=str)


def summarize(results: List[ExperimentResult]) -> str:
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(
            f"[{status}] {result.experiment_id:<4} "
            f"{result.title} ({result.duration_seconds:.2f}s)"
        )
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} experiments passed")
    return "\n".join(lines)
