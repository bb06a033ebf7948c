"""One-shot experiment report generation.

``python -m repro report -o REPORT.md`` regenerates every table and figure
this reproduction produces — the Section 2 grids, the guarantee staircase,
the reliability splits, the complexity comparison, the lower-bound
verdicts, the degradation profile, the mixed-fault grid and the clock-sync
conjecture grid — runs the quick experiment battery for the PASS/FAIL
header, and writes a single self-contained markdown document.

The report is *measured*, not copied: every table is computed at
generation time, so the document doubles as an end-to-end smoke artefact
(a regression shows up as a FAIL row or a changed table).
"""

from __future__ import annotations

import io

from repro.analysis.charts import log_bar_chart
from repro.analysis.complexity import sm_complexity, survive_u_costs
from repro.analysis.confidence import summarize_confidence
from repro.analysis.degradation import degradation_case
from repro.analysis.montecarlo import run_campaign
from repro.analysis.reliability import compare_configurations
from repro.analysis.runner import EXPERIMENTS, run_experiments, summarize
from repro.analysis.tables import (
    render_table,
    section2_min_nodes_table,
    seven_node_tradeoff_table,
)
from repro.core.spec import DegradableSpec


def generate_report(
    trials: int = 300,
    seed: int = 2026,
    include_battery: bool = True,
) -> str:
    """Build the full markdown report and return it as a string."""
    out = io.StringIO()

    def section(title: str) -> None:
        out.write(f"\n## {title}\n\n")

    def block(text: str) -> None:
        out.write("```\n" + text.rstrip() + "\n```\n")

    def artefact(heading: str, exp_id: str) -> None:
        """The quick-size artefact of registry entry *exp_id*."""
        section(heading)
        block(EXPERIMENTS[exp_id]().artefacts[0][1])

    out.write("# Measured report — degradable agreement reproduction\n\n")
    out.write(
        "Every table below is regenerated at report time by the library "
        "(see EXPERIMENTS.md for the paper-claim commentary).\n"
    )

    if include_battery:
        section("Experiment battery (quick sizes)")
        block(summarize(run_experiments()))

    section("Section 2 — minimum nodes (2m+u+1)")
    block(section2_min_nodes_table())

    section("Section 2 — the seven-node trade-off")
    block(seven_node_tradeoff_table(7))

    section("Adversarial fuzzing confidence (1/2-degradable, 5 nodes)")
    spec = DegradableSpec(m=1, u=2, n_nodes=5)
    campaign = run_campaign(spec, n_trials=trials, seed=seed)
    block(summarize_confidence(campaign.n_trials, len(campaign.violations)))

    section("Degradation profile (1/2-degradable, 5 nodes)")
    profile, _ = degradation_case(spec, trials_per_level=60, seed=seed)
    block(profile.render())

    artefact("Theorem 2 — scenario triples at and below the node bound", "E4")
    artefact("Theorem 3 — connectivity bound over disjoint-path relays", "E5")

    section("Reliability of the 7-node configurations (p_node = 0.02)")
    points = compare_configurations(7, 0.02)
    block(render_table(
        ["config", "P(correct)", "P(safe degraded)", "P(unsafe)"],
        [
            [f"{p.m}/{p.u}", p.p_correct, p.p_safe_degraded, p.p_unsafe]
            for p in points
        ],
    ))
    out.write("\nP(unsafe) on a log scale:\n")
    block(log_bar_chart([(f"{p.m}/{p.u}", p.p_unsafe) for p in points]))

    section("Cost of surviving u = 3 faults safely")
    points, _ = survive_u_costs(3)
    rows = [
        ["OM(3)" if p.algorithm == "OM" else f"BYZ({p.m}/3)", p.n_nodes,
         p.rounds, p.messages]
        for p in points
    ]
    sm = sm_complexity(3)
    rows.append(["SM(3), signed", sm.n_nodes, sm.rounds, sm.messages])
    block(render_table(["algorithm", "nodes", "rounds", "messages"], rows))

    artefact("Mixed Byzantine/crash budgets (1/2-degradable, 6 nodes)", "E11")
    artefact("Degradable clock-sync conjecture grid (1/2, 5 and 7 clocks)", "E7")

    return out.getvalue()


def write_report(path: str, **kwargs) -> str:
    """Generate the report and write it to *path*; returns the text."""
    text = generate_report(**kwargs)
    with open(path, "w") as handle:
        handle.write(text)
    return text
