"""The pre-reduction ``explore()`` loop, kept verbatim as the oracle.

This is the body ``repro.explore.explorer.explore`` had before it learned
to settle a schedule by the execution it repeats: every schedule of the
delay-bounded frontier is *run*, one ``run_schedule`` call each, through
today's ``run_schedule`` (looked up in this module's globals, so a test
can wrap it to see every outcome).  Nothing here is imported by ``src/``;
``test_reduction.py`` requires the live search to settle exactly the
schedules this one runs, with exactly its fingerprint set, and
``test_transport.py`` audits the transport on every one of them.  Do not
"fix" or speed up this file — it is the definition of the frontier.
"""

import time
from typing import List, Tuple

from repro.core.spec import DegradableSpec
from repro.exceptions import ConfigurationError
from repro.explore.explorer import (
    ExploreConfig,
    ExploreReport,
    ExploreViolation,
    run_schedule,
    shrink_schedule,
)


def reference_explore(
    config,
    depth_bound: int = 2,
    budget: int = 200,
    stop_at_first: bool = True,
    events=None,
) -> ExploreReport:
    """Delay-bounded DFS over the schedule space of *config*.

    *config* may be an :class:`ExploreConfig` or a bare
    :class:`~repro.core.spec.DegradableSpec` (explored fault-free with
    defaults).  *depth_bound* caps the number of non-default choices per
    schedule; *budget* caps total executions (schedule runs; shrinking a
    violation is budgeted separately since it terminates quickly — and
    timed separately, as ``shrink_elapsed``, so ``schedules_per_sec``
    divides the executions counted by the time they took).
    """
    if isinstance(config, DegradableSpec):
        config = ExploreConfig(
            m=config.m, u=config.u, n_nodes=config.n_nodes
        )
    if depth_bound < 0:
        raise ConfigurationError(
            f"depth_bound must be >= 0, got {depth_bound}"
        )
    if budget < 1:
        raise ConfigurationError(f"budget must be >= 1, got {budget}")
    report = ExploreReport(
        config=config, depth_bound=depth_bound, budget=budget
    )
    started = time.perf_counter()
    fingerprints = set()
    stack: List[Tuple[int, ...]] = [()]
    while stack:
        if report.executions >= budget:
            report.budget_exhausted = True
            break
        prefix = stack.pop()
        outcome = run_schedule(config, prefix, events=events)
        report.executions += 1
        report.decision_points += len(outcome.trail)
        report.offered += outcome.offered
        report.pruned += outcome.pruned
        fingerprints.add(outcome.fingerprint)
        if not outcome.ok:
            shrink_started = time.perf_counter()
            shrunk, shrink_runs = shrink_schedule(
                config, outcome.schedule, outcome
            )
            report.shrink_elapsed += time.perf_counter() - shrink_started
            report.violations.append(
                ExploreViolation(
                    found=outcome, shrunk=shrunk, shrink_runs=shrink_runs
                )
            )
            if stop_at_first:
                break
        deviations = sum(1 for c in prefix if c != 0)
        if deviations + 1 > depth_bound:
            continue
        # Branch on every decision at or past this prefix: each child is
        # generated from exactly one parent, so the search tree never
        # revisits a schedule.
        choices = tuple(point.choice for point in outcome.trail)
        children: List[Tuple[int, ...]] = []
        for i in range(len(prefix), len(outcome.trail)):
            for alternative in range(1, len(outcome.trail[i].menu)):
                children.append(choices[:i] + (alternative,))
        # LIFO stack + reversed children = earliest decision points are
        # explored first, keeping shallow (early-round) deviations ahead
        # of deep ones under tight budgets.
        stack.extend(reversed(children))
    else:
        report.frontier_exhausted = True
    report.unique_fingerprints = len(fingerprints)
    report.elapsed = (
        time.perf_counter() - started - report.shrink_elapsed
    )
    return report
