"""The explorer end to end: clean protocol explores clean, seeded bug dies.

The two acceptance claims of the schedule explorer, plus the shrinker's
contract:

* the *correct* BYZ protocol at the paper's running example ``(1, 2, 5)``
  survives every schedule to depth 3 — drops, stalls and defers land in
  the D.1–D.4 tier their effective fault count selects, and the oracle
  signs off on each;
* the deliberately broken vote (threshold skewed by +1) is caught,
  shrunk to a minimal schedule, and the shrunk token replays to the
  same violation.

Deep campaigns run hundreds of virtual protocol seconds in about a
wall-clock second; they carry ``no_wall_timeout`` because the virtual
clock's own horizon guard — not the conftest SIGALRM ceiling — is the
meaningful hang detector there.
"""

from __future__ import annotations

import pytest

from repro.core.spec import DegradableSpec
from repro.exceptions import ConfigurationError
from repro.explore import (
    ExploreConfig,
    explore,
    run_schedule,
    shrink_schedule,
)

BROKEN = ExploreConfig(vote_offset=1)


class TestCorrectProtocol:
    @pytest.mark.no_wall_timeout
    def test_depth_three_finds_no_violation(self):
        report = explore(ExploreConfig(), depth_bound=3, budget=300)
        assert report.ok
        assert report.violations == []
        assert report.executions == 300 or report.frontier_exhausted

    def test_accepts_bare_spec(self):
        report = explore(
            DegradableSpec(m=1, u=2, n_nodes=5), depth_bound=1, budget=50
        )
        assert report.ok
        assert report.config.m == 1 and report.config.n_nodes == 5

    def test_depth_one_exhausts_its_frontier(self):
        report = explore(ExploreConfig(), depth_bound=1, budget=100)
        assert report.frontier_exhausted
        assert not report.budget_exhausted
        # Depth 1 over the batched running example: the default schedule
        # plus one sibling per withheld option of its 16 decision points —
        # and a lone stall is never heard, so each is covered by its drop.
        assert report.executions == 17 and report.covered == 16
        assert report.schedules == 33

    def test_budget_caps_executions(self):
        report = explore(ExploreConfig(), depth_bound=3, budget=7)
        assert report.budget_exhausted
        assert report.executions == 7

    def test_pruning_is_counted(self):
        report = explore(ExploreConfig(), depth_bound=1, budget=10)
        assert 0.0 < report.pruning_ratio < 1.0
        assert report.offered > 0 and report.pruned > 0

    @pytest.mark.no_wall_timeout
    def test_behaviour_faults_explore_clean(self):
        config = ExploreConfig(faults=(("p1", "two-faced"),))
        report = explore(config, depth_bound=1, budget=60)
        assert report.ok

    def test_supervised_stack_explores_clean(self):
        config = ExploreConfig(supervise=True)
        report = explore(config, depth_bound=1, budget=10)
        assert report.ok

    def test_unbatched_wire_path_explores_clean(self):
        config = ExploreConfig(batching=False)
        report = explore(config, depth_bound=1, budget=40)
        assert report.ok
        # Unbatched wire: bare MARKs prune harder than batches.
        assert report.pruning_ratio > 0.3


class TestScheduleOutcomes:
    def test_default_schedule_is_the_happy_path(self):
        outcome = run_schedule(ExploreConfig())
        assert outcome.ok
        assert outcome.afflicted == frozenset()
        assert set(outcome.decisions.values()) == {"alpha"}
        assert outcome.schedule == ()

    def test_drop_lands_in_the_byzantine_tier(self):
        outcome = run_schedule(ExploreConfig(), (1,))
        assert outcome.ok
        assert outcome.afflicted == frozenset({"S"})
        assert outcome.deviations == 1

    def test_unbatched_defer_can_lose_its_race(self):
        outcome = run_schedule(ExploreConfig(batching=False), (3,))
        assert outcome.ok  # late frame -> absence -> V_d, still conformant
        assert "S" in outcome.afflicted

    def test_render_mentions_the_deviation(self):
        outcome = run_schedule(ExploreConfig(), (1,))
        text = outcome.render()
        assert "drop" in text and "tier byzantine" in text


class TestBrokenVote:
    def test_bug_is_found_and_shrunk_to_one_deviation(self):
        report = explore(BROKEN, depth_bound=2, budget=100)
        assert not report.ok
        (violation,) = report.violations
        assert violation.shrunk.deviations == 1
        assert {v.code for v in violation.shrunk.report.violations} == {
            "VOTE_MISMATCH"
        }

    def test_shrunk_token_replays_to_the_same_violation(self):
        from repro.explore import run_token

        report = explore(BROKEN, depth_bound=2, budget=100)
        (violation,) = report.violations
        replayed = run_token(violation.token)
        assert not replayed.ok
        assert replayed.fingerprint == violation.shrunk.fingerprint
        assert replayed.report.codes == violation.shrunk.report.codes

    def test_happy_path_hides_the_bug(self):
        # The skewed threshold only bites when an absence thins ballots:
        # the all-deliver schedule still decides correctly, which is why
        # exploration (not one run) is the right detector.
        outcome = run_schedule(BROKEN)
        assert outcome.ok

    @pytest.mark.no_wall_timeout
    def test_exhaustive_mode_collects_many_counterexamples(self):
        report = explore(
            BROKEN, depth_bound=1, budget=50, stop_at_first=False
        )
        assert len(report.violations) > 1
        for violation in report.violations:
            assert violation.shrunk.deviations <= violation.found.deviations


    def test_schedules_per_sec_leaves_shrinking_out(self, monkeypatch):
        """``executions`` does not count the shrinker's runs, so the time
        they take must not sit in the rate's denominator either.  A clock
        that ticks one second per executed schedule makes both exact."""
        from repro.explore import explorer

        class OneSecondPerSchedule:
            now = 0.0

            def perf_counter(self):
                return self.now

        clock = OneSecondPerSchedule()
        real_run_schedule = explorer.run_schedule

        def timed_run_schedule(*args, **kwargs):
            clock.now += 1.0
            return real_run_schedule(*args, **kwargs)

        monkeypatch.setattr(explorer, "time", clock)
        monkeypatch.setattr(explorer, "run_schedule", timed_run_schedule)
        report = explore(BROKEN, depth_bound=1, budget=50, stop_at_first=False)
        shrink_runs = sum(v.shrink_runs for v in report.violations)
        assert report.violations and shrink_runs > 0
        assert report.elapsed == report.executions
        assert report.shrink_elapsed == shrink_runs
        assert report.schedules_per_sec == 1.0
        assert f"shrinking took {shrink_runs:.2f}s" in report.render()
        clean = explore(ExploreConfig(), depth_bound=0, budget=1)
        assert clean.shrink_elapsed == 0.0 and "shrinking" not in clean.render()


class TestShrinker:
    def test_refuses_conforming_schedules(self):
        with pytest.raises(ConfigurationError, match="conforming"):
            shrink_schedule(ExploreConfig(), ())

    def test_drops_incidental_deviations(self):
        # Deviation at decision 0 breaks the vote; the one at decision 4
        # is incidental. The shrinker must strip the latter.
        found = run_schedule(BROKEN, (1, 0, 0, 0, 1))
        assert not found.ok
        shrunk, runs = shrink_schedule(BROKEN, found.schedule, found)
        assert shrunk.schedule == (1,)
        assert not shrunk.ok
        assert runs >= 1

    def test_lowers_choice_indices(self):
        # A stall (choice 2) violates exactly like the cheaper drop
        # (choice 1): 1-minimality includes lowering surviving choices.
        found = run_schedule(BROKEN, (2,))
        assert not found.ok
        shrunk, _ = shrink_schedule(BROKEN, found.schedule, found)
        assert shrunk.schedule == (1,)


class TestValidation:
    def test_negative_depth_rejected(self):
        with pytest.raises(ConfigurationError):
            explore(ExploreConfig(), depth_bound=-1)

    def test_zero_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            explore(ExploreConfig(), budget=0)

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            ExploreConfig(m=1, u=2, n_nodes=4)  # N = 2m+u is one short

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="fault kind"):
            ExploreConfig(faults=(("p1", "gremlin"),)).behaviors()
