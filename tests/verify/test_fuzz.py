"""Differential fuzz harness: tokens, the seeded sampler, determinism, and
the quick gate.

The full fuzz budget is marked ``slow`` and excluded from tier-1
(``pytest -m slow`` runs it; ``scripts/ci.sh`` does).  Tier-1 keeps a
small deterministic slice: token round-trips, the sampler's domain, the
chaos-replay fingerprint guarantee, old chaos tokens replaying their
trials, and a handful of sampled cases.
"""

import subprocess
import sys

import pytest

from hypothesis import given, settings

from repro.core.scenario import FAULT_KINDS
from repro.exceptions import ConfigurationError
from repro.explore import run_on_virtual_clock
from repro.net.chaos import SEVERITIES
from repro.verify.fuzz import (
    SPEC_CORNERS,
    FuzzCase,
    parse_case_token,
    run_case,
    run_case_async,
    run_fuzz,
    sample_cases,
)
from tests.verify.strategies import case_strategy


def replay_fingerprints(case, transports=("local",)):
    """Per-mode trace fingerprints for one replay of *case*."""
    return dict(run_case(case, transports=transports).fingerprints)


class TestReplayTokens:
    def test_token_round_trip_explicit(self):
        case = FuzzCase(
            m=1,
            u=2,
            n_nodes=5,
            sender_value="beta",
            faults=(("p1", "lie"), ("p3", "two-faced")),
            chaos_severity="heavy",
            chaos_seed=991,
            timeout=0.25,
        )
        assert parse_case_token(case.token) == case

    def test_token_without_faults_or_chaos(self):
        case = FuzzCase(m=0, u=1, n_nodes=2)
        assert "faults=-" in case.token
        assert "chaos=-" in case.token
        assert parse_case_token(case.token) == case

    def test_grid_fields_only_when_set(self):
        case = FuzzCase(
            m=1, u=2, n_nodes=5, chaos_severity="light", chaos_seed=9,
            timeout=0.5, transport="tcp", kill_links=True,
        )
        assert case.token.endswith(",timeout=0.5,transport=tcp,kill_links=1")
        assert parse_case_token(case.token) == case
        assert "transport" not in FuzzCase(m=1, u=2, n_nodes=5).token

    @settings(max_examples=60, deadline=None)
    @given(case_strategy())
    def test_token_round_trip_property(self, case):
        assert parse_case_token(case.token) == case

    def test_malformed_tokens_rejected(self):
        for token in ("", "m=1", "m=1,u=2,n=x", "m=1,u=2,n=5,faults=p1"):
            with pytest.raises(ConfigurationError):
                parse_case_token(token)

    @pytest.mark.parametrize("field, value", [
        ("chaos_severity", "nope"),
        ("transport", "carrier-pigeon"),
        ("timeout", 0.0),
        ("timeout", -1.0),
    ])
    def test_case_validation(self, field, value):
        with pytest.raises(ConfigurationError):
            FuzzCase(m=1, u=2, n_nodes=5, **{field: value})

    def test_unknown_fault_kind_rejected(self):
        case = parse_case_token("m=1,u=2,n=5,faults=p1:gremlin")
        with pytest.raises(ConfigurationError):
            case.behaviors()
        assert "gremlin" not in FAULT_KINDS


class TestSampler:
    def test_same_seed_same_tokens(self):
        first = [case.token for case in sample_cases(7, 40)]
        assert first == [case.token for case in sample_cases(7, 40)]
        assert first != [case.token for case in sample_cases(8, 40)]

    def test_draws_stay_in_the_strategy_domain(self):
        cases = sample_cases(0, 500)
        for case in cases:
            assert (case.m, case.u) in SPEC_CORNERS
            assert 2 * case.m + case.u < case.n_nodes <= 7
            assert len(case.faults) <= case.u
            assert {kind for _, kind in case.faults} <= set(FAULT_KINDS)
            assert len(case.behaviors()) == len(case.faults)
            assert not case.transport and not case.kill_links
            if case.chaos_severity:
                assert case.chaos_severity in SEVERITIES
                assert case.timeout == 0.25
            else:
                assert (case.chaos_seed, case.timeout) == (0, 2.0)
            assert parse_case_token(case.token) == case
        # The coin flip lands both ways, every corner is drawn.
        assert {bool(case.chaos_severity) for case in cases} == {True, False}
        assert {(case.m, case.u) for case in cases} == set(SPEC_CORNERS)

    def test_no_chaos_means_no_chaos(self):
        assert not any(
            case.chaos_severity for case in sample_cases(3, 100, False)
        )

    def test_fuzz_runs_without_hypothesis(self):
        probe = (
            "import runpy, sys\n"
            "sys.argv = ['repro', 'fuzz', '--quick', '--seed', '7', "
            "'--transport', 'local']\n"
            "try:\n    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
            "print('hypothesis' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True, timeout=120,
        )
        assert "PASSED" in result.stdout
        assert result.stdout.splitlines()[-1] == "False"


class TestRunCase:
    def test_clean_case_all_modes_agree(self):
        outcome = run_case(
            FuzzCase(m=1, u=2, n_nodes=5, faults=(("p1", "constant"),)),
            transports=("local",),
        )
        assert outcome.ok, outcome.render()
        assert set(outcome.reports) == {"sync", "local", "local-unbatched"}
        assert all(r.ok for r in outcome.reports.values())

    def test_chaos_case_verifies_per_mode(self):
        outcome = run_case(
            FuzzCase(
                m=1,
                u=2,
                n_nodes=5,
                chaos_severity="light",
                chaos_seed=42,
                timeout=0.25,
            ),
            transports=("local",),
        )
        assert outcome.ok, outcome.render()
        # chaos draws are per-mode: no cross-mode comparison is recorded
        assert outcome.divergences == []

    def test_grid_case_is_one_audited_run(self):
        case = parse_case_token(
            "m=1,u=2,n=5,severity=crash,transport=local,seed=11"
        )
        outcome = run_on_virtual_clock(run_case_async(case, ("tcp",)))
        # One batched run over the case's own transport, judged by the
        # oracle; the transports argument is for sampled cases.
        assert list(outcome.reports) == ["local"] == list(outcome.runs)
        report = outcome.reports["local"]
        assert report.ok and report.record.batched
        assert report.tier == "degraded"
        assert sorted(report.record.faulty) == ["p3", "p4"]
        assert outcome.line() == (
            f"  [ok] {case.token} tier=degraded f_eff=2"
        )

    def test_replay_fingerprints_deterministic(self):
        """One token → one trace, batched and unbatched."""
        case = parse_case_token(
            "m=1,u=2,n=5,value=beta,faults=p2:silent,"
            "chaos=heavy:991,timeout=0.25"
        )
        first = replay_fingerprints(case, transports=("local",))
        second = replay_fingerprints(case, transports=("local",))
        assert set(first) == {"sync", "local", "local-unbatched"}
        assert first == second
        # batched and unbatched traces legitimately differ at the wire
        # layer (frames vs batches), each deterministically
        assert first["local"] != first["local-unbatched"]


# NetMetrics.counters() of two chaos-grammar trials as the retired
# campaign ran them (run_trial on the virtual clock), before the grammar
# became a shim onto FuzzCase.
CRASH_KILL_LINKS_COUNTERS = {
    "crash_events": 2, "decode_errors": 0, "endpoint_restarts": 1,
    "link.p3.p1.deduped": 1, "link_resets": 1, "partition_rounds": 0,
    "stray_frames": 0, "substitutions": 7,
    "r1.chaos_corruptions": 0, "r1.chaos_drops": 1, "r1.chaos_dups": 0,
    "r1.chaos_reorders": 0, "r1.delivered": 3, "r1.dropped": 0,
    "r1.expected_links": 4, "r1.frames_batched": 4, "r1.frames_sent": 4,
    "r1.late_frames": 0, "r1.messages_sent": 4, "r1.send_failures": 0,
    "r1.timeouts": 1,
    "r2.chaos_corruptions": 0, "r2.chaos_drops": 6, "r2.chaos_dups": 1,
    "r2.chaos_reorders": 0, "r2.delivered": 6, "r2.dropped": 0,
    "r2.expected_links": 12, "r2.frames_batched": 12, "r2.frames_sent": 12,
    "r2.late_frames": 0, "r2.messages_sent": 12, "r2.send_failures": 0,
    "r2.timeouts": 6,
    "r3.chaos_corruptions": 0, "r3.chaos_drops": 0, "r3.chaos_dups": 0,
    "r3.chaos_reorders": 0, "r3.delivered": 0, "r3.dropped": 0,
    "r3.expected_links": 0, "r3.frames_batched": 0, "r3.frames_sent": 0,
    "r3.late_frames": 0, "r3.messages_sent": 0, "r3.send_failures": 0,
    "r3.timeouts": 0,
}
HEAVY_COUNTERS = {
    "crash_events": 0, "decode_errors": 0, "endpoint_restarts": 0,
    "link_resets": 0, "partition_rounds": 0, "stray_frames": 0,
    "substitutions": 4,
    "r1.chaos_corruptions": 0, "r1.chaos_drops": 2, "r1.chaos_dups": 1,
    "r1.chaos_reorders": 0, "r1.delivered": 2, "r1.dropped": 0,
    "r1.expected_links": 4, "r1.frames_batched": 4, "r1.frames_sent": 4,
    "r1.late_frames": 0, "r1.messages_sent": 4, "r1.send_failures": 0,
    "r1.timeouts": 2,
    "r2.chaos_corruptions": 0, "r2.chaos_drops": 2, "r2.chaos_dups": 1,
    "r2.chaos_reorders": 0, "r2.delivered": 11, "r2.dropped": 0,
    "r2.expected_links": 12, "r2.frames_batched": 12, "r2.frames_sent": 12,
    "r2.late_frames": 1, "r2.messages_sent": 12, "r2.send_failures": 0,
    "r2.timeouts": 2,
    "r3.chaos_corruptions": 0, "r3.chaos_drops": 0, "r3.chaos_dups": 0,
    "r3.chaos_reorders": 0, "r3.delivered": 0, "r3.dropped": 0,
    "r3.expected_links": 0, "r3.frames_batched": 0, "r3.frames_sent": 0,
    "r3.late_frames": 0, "r3.messages_sent": 0, "r3.send_failures": 0,
    "r3.timeouts": 0,
}


class TestOldChaosTokens:
    @pytest.mark.no_wall_timeout
    @pytest.mark.parametrize("token, counters", [
        # scripts/replay_tokens.sh
        (
            "m=1,u=2,n=5,severity=crash,transport=local,seed=11,"
            "timeout=0.25,kill_links=1",
            CRASH_KILL_LINKS_COUNTERS,
        ),
        # docs/runtime.md
        (
            "m=1,u=2,n=5,severity=heavy,transport=local,seed=123,"
            "timeout=0.25",
            HEAVY_COUNTERS,
        ),
    ])
    def test_shim_replays_the_same_trial(self, token, counters):
        outcome = run_on_virtual_clock(
            run_case_async(parse_case_token(token))
        )
        (run,) = outcome.runs.values()
        assert sorted(run.metrics.counters().items()) == sorted(
            counters.items()
        )
        assert outcome.ok, outcome.render()


class TestQuickFuzz:
    def test_quick_budget_is_clean(self):
        report = run_fuzz(seed=7, max_examples=4, transports=("local",))
        assert report.ok, report.render()
        assert report.examples == 4

    def test_failure_surfaces_replay_token(self, monkeypatch):
        # sabotage the oracle so every case fails: the report must carry
        # every failing case and its token
        from repro.verify import fuzz as fuzz_mod

        real = fuzz_mod.run_case_async

        async def sabotaged(case, transports=("local",)):
            outcome = await real(case, transports=transports)
            outcome.divergences.append("synthetic divergence (test)")
            return outcome

        monkeypatch.setattr(fuzz_mod, "run_case_async", sabotaged)
        report = fuzz_mod.run_fuzz(
            seed=0, max_examples=3, transports=("local",)
        )
        assert not report.ok
        assert len(report.failures) == 3
        for failure in report.failures:
            assert parse_case_token(failure.case.token) == failure.case
            assert "replay" in failure.render()
        assert report.render().count("synthetic divergence") == 3


@pytest.mark.slow
class TestFullBudget:
    def test_full_fuzz_local_and_tcp(self):
        report = run_fuzz(seed=0, max_examples=20, transports=("local", "tcp"))
        assert report.ok, report.render()

    def test_second_seed_sweep(self):
        report = run_fuzz(seed=1234, max_examples=20, transports=("local",))
        assert report.ok, report.render()
