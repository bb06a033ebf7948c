"""Explorer benchmark: throughput, pruning, and shrink effectiveness.

Two measured campaigns, both fully deterministic (no seeds, no wall-clock
inputs — wall time is *measured*, never consulted):

* **correct** — the running-example ``(m, u, N) = (1, 2, 5)`` BYZ
  instance explored to the configured depth: schedules/second, the
  partial-order pruning ratio, and distinct protocol fingerprints.  Zero
  violations here is a gate, not a statistic.
* **broken vote** — the same instance with the seeded ``vote_offset=+1``
  resolver bug, explored *exhaustively* (no first-violation stop) so the
  shrinker gets non-minimal counterexamples to work on.  Reported: how
  many schedules violate, and for the deepest violation found, the
  schedule before/after shrinking and the candidate executions the
  shrinker spent.

The JSON artifact (schema ``repro.bench.explore/v1``) records one number
per claim the docs quote.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.explore.explorer import ExploreConfig, ExploreReport, explore

BENCH_SCHEMA = "repro.bench.explore/v1"

#: Canonical artifact name (written at the repo root by ``repro explore
#: --bench``).
DEFAULT_OUT = "BENCH_explore.json"


def _report_stats(report: ExploreReport) -> dict:
    config = report.config
    return {
        "m": config.m,
        "u": config.u,
        "n_nodes": config.n_nodes,
        "depth_bound": report.depth_bound,
        "budget": report.budget,
        "executions": report.executions,
        "decision_points": report.decision_points,
        "schedules_per_sec": round(report.schedules_per_sec, 1),
        "pruning_ratio": round(report.pruning_ratio, 4),
        "unique_fingerprints": report.unique_fingerprints,
        "violations": len(report.violations),
        "frontier_exhausted": report.frontier_exhausted,
        "elapsed_s": round(report.elapsed, 3),
    }


def run_bench(quick: bool = False) -> dict:
    """Run both campaigns and return the artifact payload.

    *quick* shrinks the correct-protocol sweep (depth 2, budget 150) so
    the CI gate stays well under its time box; the broken-vote campaign
    is identical in both modes — it is the artifact's headline.
    """
    depth = 2 if quick else 3
    budget = 150 if quick else 400
    correct = explore(ExploreConfig(), depth_bound=depth, budget=budget)

    broken_config = ExploreConfig(vote_offset=1)
    broken = explore(
        broken_config, depth_bound=2, budget=150, stop_at_first=False
    )
    shrink_stats: Optional[dict] = None
    if broken.violations:
        # Quote the *deepest* counterexample found — the one with the
        # most non-default choices — so the before/after gap measures the
        # shrinker, not the explorer's habit of finding shallow bugs
        # first.  (``explore`` shrinks every violation as it finds it.)
        deepest = max(
            broken.violations, key=lambda v: (v.found.deviations, v.token)
        )
        shrink_stats = {
            "found_schedule": list(deepest.found.schedule),
            "found_deviations": deepest.found.deviations,
            "shrunk_schedule": list(deepest.shrunk.schedule),
            "shrunk_deviations": deepest.shrunk.deviations,
            "shrink_runs": deepest.shrink_runs,
            "token": deepest.token,
            "codes": sorted(
                {c for v in broken.violations for c in v.found.report.codes}
            ),
        }

    return {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "correct": _report_stats(correct),
        "broken_vote": {
            "vote_offset": broken_config.vote_offset,
            **_report_stats(broken),
            "example": shrink_stats,
        },
        "ok": correct.ok and bool(broken.violations),
    }


def render_bench(payload: dict) -> str:
    correct = payload["correct"]
    broken = payload["broken_vote"]
    lines = [
        "explore bench"
        + (" (quick)" if payload.get("quick") else "")
        + f": schema {payload['schema']}",
        (
            f"  correct  ({correct['m']},{correct['u']},{correct['n_nodes']})"
            f" depth {correct['depth_bound']}: {correct['executions']} schedules"
            f" @ {correct['schedules_per_sec']}/s,"
            f" pruning {correct['pruning_ratio']:.0%},"
            f" {correct['unique_fingerprints']} distinct states,"
            f" {correct['violations']} violations"
        ),
        (
            f"  broken   vote_offset=+{broken['vote_offset']}:"
            f" {broken['violations']} violating schedules"
            f" in {broken['executions']} executions"
        ),
    ]
    example = broken.get("example")
    if example:
        lines.append(
            f"  shrink   {example['found_deviations']} deviation(s)"
            f" -> {example['shrunk_deviations']}"
            f" in {example['shrink_runs']} candidate runs"
            f" ({example['found_schedule']} -> {example['shrunk_schedule']})"
        )
        lines.append(f"  replay   {example['token']}")
    lines.append(f"  verdict  {'ok' if payload['ok'] else 'FAILED'}")
    return "\n".join(lines)


def write_bench(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
