"""One run per behaviour, checked against the search that runs everything.

``explore`` settles a schedule without running it when a settled twin
reported the flipped drop *silent*: the stall would have surfaced after
its destination stopped listening, so it is the same execution.  The
claim is exact, so the gate is too — on every frontier small enough to
run both ways, against ``reference_explorer.reference_explore`` (the
pre-reduction loop, verbatim):

* both settle the same number of schedules and see the same fingerprint
  *set*;
* a stall somebody consumed (its frame has a ``late-frame`` line) is never
  one its drop twin calls silent, and a schedule none of whose stalls is
  silent is always run;
* the schedules left unrun are exactly the runs' silent drops flipped to
  ``stall``, and each, executed directly, equals its twin — fingerprint,
  ``to_jsonl()`` bytes, decisions, afflicted set, verdict, and trail
  apart from the flipped choices;
* a stall landing exactly on an instant its destination still listens at
  is run; the planted vote bug dies at the same execution with the same
  token; ``budget`` caps runs, not settled schedules.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Tuple

import pytest

from repro.explore import (
    DROP,
    STALL,
    ExploreConfig,
    explore,
    explorer,
    run_schedule,
    transport,
)

from tests.explore import reference_explorer
from tests.explore.reference_explorer import reference_explore

#: name -> (config, depth bound, schedules in the frontier, runs needed,
#: stalls consumed across the frontier).  Only the batched two-round
#: frontiers at depth 2 hold a consumed stall: it takes a second absence
#: to keep the destination listening until the stale frame surfaces.
FRONTIERS = {
    "n5-clean": (ExploreConfig(), 2, 513, 149, 24),
    "n5-supervised-faulty": (
        ExploreConfig(
            supervise=True, faults=(("p1", "two-faced"), ("p2", "lie"))
        ),
        2,
        513,
        149,
        24,
    ),
    "n5-unbatched": (ExploreConfig(batching=False), 2, 5839, 4263, 0),
    "n5-unbatched-d1": (ExploreConfig(batching=False), 1, 109, 93, 0),
    "n7-clean": (ExploreConfig(m=2, u=2, n_nodes=7), 1, 133, 67, 0),
}


@dataclass(frozen=True)
class Seen:
    """What one executed schedule showed, small enough to keep 10 000 of."""

    fingerprint: str
    jsonl: bytes  # sha256 of the record's to_jsonl() bytes
    consumed: FrozenSet[int]  # stalls whose frame has a late-frame line
    decisions: Tuple
    afflicted: FrozenSet
    codes: Tuple
    shape: Tuple  # the trail without its choices
    choices: Tuple[int, ...]
    silent: FrozenSet[int]


def see(outcome) -> Seen:
    text = outcome.record.to_jsonl()
    late = set()  # (frame round, frame kind, source, destination)
    for line in text.splitlines():
        if '"kind":"late-frame"' in line:
            event = json.loads(line)
            meta = dict(event["meta"]["items"])
            late.add(
                (meta["frame_round"], meta["frame"],
                 event["source"], event["destination"])
            )
    return Seen(
        fingerprint=outcome.fingerprint,
        jsonl=hashlib.sha256(text.encode()).digest(),
        consumed=frozenset(
            p.index
            for p in outcome.trail
            if p.action == STALL
            and (p.round_no, p.kind, p.source, p.destination) in late
        ),
        decisions=tuple(sorted(outcome.decisions.items(), key=str)),
        afflicted=outcome.afflicted,
        codes=tuple(outcome.report.codes),
        shape=tuple(
            (p.index, p.round_no, p.kind, p.source, p.destination, p.menu)
            for p in outcome.trail
        ),
        choices=tuple(p.choice for p in outcome.trail),
        silent=outcome.silent_stalls,
    )


def watch(patch, module) -> Dict[Tuple[int, ...], Seen]:
    """Record every schedule *module*'s search runs: prefix -> Seen."""
    ran: Dict[Tuple[int, ...], Seen] = {}

    def watched(config, schedule=(), events=None):
        outcome = run_schedule(config, schedule, events=events)
        ran[tuple(schedule)] = see(outcome)
        return outcome

    patch.setattr(module, "run_schedule", watched)
    return ran


def flipped(schedule, indices, choice):
    return tuple(
        choice if i in indices else c for i, c in enumerate(schedule)
    )


#: Ten thousand runs, a third of tier-1's wall: ``scripts/ci.sh`` runs it
#: (``-m slow``); tier-1 keeps the same assertions on the depth-1 frontier.
SLOW = {"n5-unbatched"}


@pytest.fixture(
    scope="module",
    params=[
        pytest.param(name, marks=pytest.mark.slow) if name in SLOW else name
        for name in FRONTIERS
    ],
)
def frontier(request):
    config, depth = FRONTIERS[request.param][:2]
    bounds = dict(depth_bound=depth, budget=10**6, stop_at_first=False)
    with pytest.MonkeyPatch.context() as patch:
        reference_ran = watch(patch, reference_explorer)
        reference = reference_explore(config, **bounds)
        ran = watch(patch, explorer)
        report = explore(config, **bounds)
    return request.param, reference, reference_ran, report, ran


@pytest.mark.no_wall_timeout
class TestReducedSearchAgainstTheReference:
    def test_same_frontier_settled(self, frontier):
        name, reference, reference_ran, report, ran = frontier
        _, _, schedules, runs, _ = FRONTIERS[name]
        assert reference.frontier_exhausted and reference.ok
        assert report.frontier_exhausted and report.ok
        assert reference.executions == len(reference_ran) == schedules
        assert report.executions == len(ran) == runs
        assert report.schedules == report.executions + report.covered
        assert report.schedules == schedules
        assert reference.covered == 0

    def test_same_fingerprint_set(self, frontier):
        _, reference, reference_ran, report, ran = frontier
        assert {s.fingerprint for s in ran.values()} == {
            s.fingerprint for s in reference_ran.values()
        }
        assert report.unique_fingerprints == reference.unique_fingerprints

    def test_what_is_run_is_what_the_reference_ran(self, frontier):
        _, _, reference_ran, _, ran = frontier
        for schedule, seen in ran.items():
            assert reference_ran[schedule] == seen, schedule

    def test_a_consumed_stall_is_never_silent(self, frontier):
        name, _, reference_ran, _, ran = frontier
        consumed = [
            (schedule, i)
            for schedule, seen in reference_ran.items()
            for i in seen.consumed
        ]
        assert len(consumed) == FRONTIERS[name][4]
        for schedule, i in consumed:
            drop = reference_ran[schedule].shape[i][5].index(DROP)
            assert i not in reference_ran[flipped(schedule, {i}, drop)].silent
        # ... so a schedule whose every stall is consumed is always run.
        all_heard = {
            schedule
            for schedule, seen in reference_ran.items()
            if seen.consumed
            and len(seen.consumed) == sum(
                seen.shape[i][5][c] == STALL for i, c in enumerate(schedule)
            )
        }
        assert bool(all_heard) == bool(consumed)
        assert all_heard <= set(ran)

    def test_covered_schedules_are_their_twins(self, frontier):
        _, _, reference_ran, report, ran = frontier
        covered = {}
        for schedule, twin in ran.items():
            menus = [point[5] for point in twin.shape]
            assert all(menus[i][schedule[i]] == DROP for i in twin.silent)
            for size in range(1, len(twin.silent) + 1):
                for indices in combinations(sorted(twin.silent), size):
                    stall = menus[indices[0]].index(STALL)
                    child = flipped(schedule, indices, stall)
                    assert child not in covered
                    covered[child] = (indices, stall, twin)
        assert set(covered) == set(reference_ran) - set(ran)
        assert len(covered) == report.covered
        for child, (indices, stall, twin) in covered.items():
            direct = reference_ran[child]  # run_schedule(config, child)
            assert direct.choices == flipped(twin.choices, indices, stall)
            assert (
                direct.fingerprint, direct.jsonl, direct.consumed,
                direct.decisions, direct.afflicted, direct.codes,
                direct.shape, direct.silent,
            ) == (
                twin.fingerprint, twin.jsonl, twin.consumed,
                twin.decisions, twin.afflicted, twin.codes,
                twin.shape, twin.silent - set(indices),
            ), child


class TestTheBoundary:
    """S->p1 dropped in round 1, p2->p1 dropped in round 2: p1 rides out
    both deadlines, so it last listens at the second one."""

    def schedule(self):
        (second,) = (
            p.index
            for p in run_schedule(ExploreConfig()).trail
            if (p.round_no, p.source, p.destination) == (2, "p2", "p1")
        )
        return (1,) + (0,) * (second - 1) + (1,)

    @pytest.mark.parametrize(
        "fraction,silent",
        [(0.5, False), (1.0, False), (1.0 + 2**-20, True), (1.5, True)],
        ids=["heard", "tie-counts-as-heard", "just-past", "past"],
    )
    def test_strictly_later_than_the_last_listen(
        self, monkeypatch, fraction, silent
    ):
        monkeypatch.setattr(transport, "STALL_FRACTION", fraction)
        outcome = run_schedule(ExploreConfig(), self.schedule())
        assert (0 in outcome.silent_stalls) is silent

    def test_a_tie_is_run_not_covered(self, monkeypatch):
        monkeypatch.setattr(transport, "STALL_FRACTION", 1.0)
        ran = watch(monkeypatch, explorer)
        report = explore(
            ExploreConfig(), depth_bound=2, budget=10**6, stop_at_first=False
        )
        assert report.frontier_exhausted and report.schedules == 513
        tie = flipped(self.schedule(), {0}, 2)
        assert tie in ran and self.schedule() in ran
        assert 0 not in ran[self.schedule()].silent


class TestSameVerdictsSameBudget:
    def test_planted_bug_dies_at_the_same_execution(self):
        broken = ExploreConfig(vote_offset=1)
        reduced = explore(broken, depth_bound=2, budget=150)
        reference = reference_explore(broken, depth_bound=2, budget=150)
        (found,), (expected,) = reduced.violations, reference.violations
        assert reduced.executions == reference.executions == 2
        assert found.found.schedule == expected.found.schedule
        assert found.token == expected.token
        assert found.shrunk.deviations == 1
        assert found.shrink_runs == expected.shrink_runs

    def test_budget_caps_runs_not_covered(self):
        spent = explore(ExploreConfig(), depth_bound=2, budget=100)
        assert spent.budget_exhausted and not spent.frontier_exhausted
        assert spent.executions == 100 and spent.covered > 0
        exact = explore(ExploreConfig(), depth_bound=2, budget=149)
        assert exact.frontier_exhausted and not exact.budget_exhausted
        assert (exact.executions, exact.covered) == (149, 364)


@pytest.mark.no_wall_timeout
def test_running_example_exhausts_clean_at_depth_three():
    report = explore(
        ExploreConfig(), depth_bound=3, budget=10**6, stop_at_first=False
    )
    assert report.frontier_exhausted and report.ok
    assert (report.executions, report.schedules) == (865, 4993)
    assert report.unique_fingerprints == 865
