"""Campaign machinery: grid cases, replay tokens, trial seeds, reports,
reproducibility.

A ``repro chaos`` trial is a grid :class:`~repro.verify.fuzz.FuzzCase`
(transport set, no declared faults) judged by the conformance oracle; the
campaign report is a :class:`~repro.verify.fuzz.FuzzReport` rendering.
"""

import json
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.scenario import Instance, node_ids
from repro.core.spec import DegradableSpec
from repro.exceptions import ConfigurationError
from repro.explore import run_on_virtual_clock
from repro.net import LocalBus, run_agreement_async
from repro.net.chaos import (
    SEVERITIES,
    EndpointRestart,
    make_policy,
    run_seeded_instance,
    seeded_policy,
)
from repro.verify.fuzz import (
    DEFAULT_GRID,
    GRID_VALUE,
    FuzzCase,
    grid_cases,
    parse_case_token,
    rerun_diff,
    run_case_async,
    run_cases_async,
    trial_seed,
)


def _grid(seed, severities, trials, **kwargs):
    return run_on_virtual_clock(
        run_cases_async(grid_cases(seed, severities, trials, **kwargs), seed)
    )


class TestReplayToken:
    def test_round_trip(self):
        case = FuzzCase(
            m=1, u=2, n_nodes=5, sender_value=GRID_VALUE,
            chaos_severity="heavy", chaos_seed=987654, timeout=0.3,
            transport="tcp",
        )
        assert parse_case_token(case.token) == case
        # The retired chaos grammar reads onto the same case.
        assert parse_case_token(
            "m=1,u=2,n=5,severity=heavy,transport=tcp,seed=987654,"
            "timeout=0.3"
        ) == case

    def test_default_timeout_optional_in_token(self):
        case = parse_case_token(
            "m=1,u=2,n=5,severity=light,transport=local,seed=3"
        )
        assert case.timeout == 0.25
        assert case.token == (
            "m=1,u=2,n=5,value=engage,faults=-,chaos=light:3,timeout=0.25,"
            "transport=local"
        )

    @pytest.mark.parametrize("token", [
        "",
        "m=1,u=2",                                        # missing fields
        "m=x,u=2,n=5,severity=light,transport=local,seed=3",  # bad int
        "m=1,u=2,n=5,severity=nope,transport=local,seed=3",   # bad severity
        "m=1;u=2;n=5",                                    # wrong separator
    ])
    def test_malformed_tokens_rejected(self, token):
        with pytest.raises(ConfigurationError):
            parse_case_token(token)

    def test_config_validation(self):
        for token in (
            "m=1,u=2,n=5,severity=light,transport=carrier-pigeon,seed=1",
            "m=1,u=2,n=5,severity=light,transport=local,seed=1,timeout=0",
            "m=1,u=2,n=5,chaos=light:1,transport=carrier-pigeon",
            "m=1,u=2,n=5,chaos=light:1,timeout=0",
        ):
            with pytest.raises(ConfigurationError):
                parse_case_token(token)


class TestSeededPolicy:
    """``seeded_policy`` is the recipe the campaign, the fuzzer and the
    CLI's serve/trace verbs each used to spell out by hand."""

    @pytest.mark.parametrize("seed", [0, 7, 123456])
    @pytest.mark.parametrize("kill_links", [False, True])
    @pytest.mark.parametrize("severity", SEVERITIES)
    def test_reproduces_the_inlined_recipe(self, severity, kill_links, seed):
        spec = DegradableSpec(m=2, u=3, n_nodes=8)
        nodes = node_ids(8)
        # The recipe as every call site wrote it before.
        rng = random.Random(seed)
        policy = make_policy(severity, spec, nodes, rng, seed=seed)
        if kill_links:
            victim = nodes[1:][rng.randrange(len(nodes) - 1)]
            policy = replace(
                policy,
                link_resets=tuple(range(2, spec.rounds + 1)),
                restarts=(EndpointRestart(node=victim, at_round=2),),
            )

        got_policy, got_rng = seeded_policy(
            severity, spec, nodes, seed, kill_links
        )
        assert got_policy == policy
        assert got_policy.seed == seed
        # The RNG-sharing rule: the returned RNG stands exactly where the
        # policy's victim draws left it, ready for the per-frame draws.
        assert [got_rng.random() for _ in range(8)] == [
            rng.random() for _ in range(8)
        ]

    def test_default_is_no_kill_links(self):
        spec = DegradableSpec(m=1, u=2, n_nodes=5)
        policy, _ = seeded_policy("light", spec, node_ids(5), 3)
        assert not policy.link_resets and not policy.restarts


class TestSeededInstance:
    """``run_seeded_instance`` is the run-one-net-instance recipe a grid
    trial, ``repro trace`` and the fuzzer each spelled out."""

    @pytest.mark.no_wall_timeout
    @pytest.mark.parametrize("kill_links", [False, True])
    @pytest.mark.parametrize("severity", SEVERITIES)
    def test_reproduces_the_inlined_trial(self, severity, kill_links):
        case = FuzzCase(
            2, 3, 8, GRID_VALUE, chaos_severity=severity, chaos_seed=7,
            timeout=0.25, transport="local", kill_links=kill_links,
        )
        spec, nodes = case.spec(), case.nodes()

        async def inlined():
            # The grid trial's body, as it read before the recipe had a name.
            policy, rng = seeded_policy(severity, spec, nodes, 7, kill_links)
            return await run_agreement_async(
                spec, nodes, nodes[0], "engage",
                transport=LocalBus(), round_timeout=case.timeout,
                chaos=policy, chaos_rng=rng, supervise=kill_links,
            )

        want = run_on_virtual_clock(inlined())
        got, afflicted, tier = run_on_virtual_clock(run_seeded_instance(
            case, "local", case.timeout, severity, 7, kill_links
        ))
        assert got.result.decisions == want.result.decisions
        assert afflicted == want.chaos.afflicted
        assert tier == spec.guarantee_for(len(afflicted))
        assert got.chaos.counts() == want.chaos.counts()
        assert got.metrics.counters() == want.metrics.counters()

        trial = run_on_virtual_clock(run_case_async(case))
        (run,) = trial.runs.values()
        (report,) = trial.reports.values()
        assert run.result.decisions == want.result.decisions
        assert report.record.faulty == afflicted
        assert report.tier == tier
        assert trial.chaos_totals() == want.chaos.counts()
        assert run.metrics.counters() == want.metrics.counters()

    def test_a_clean_network_charges_only_the_declared_faults(self):
        instance = Instance(1, 2, 5, "alpha", (("p2", "silent"),))
        outcome, afflicted, tier = run_on_virtual_clock(
            run_seeded_instance(instance, "local", 0.5)
        )
        assert outcome.chaos is None
        assert afflicted == {"p2"} and tier == "byzantine"


class TestTrialSeeds:
    def test_stable_and_distinct(self):
        assert trial_seed(7, "light", 0) == trial_seed(7, "light", 0)
        seeds = {
            trial_seed(7, severity, index)
            for severity in ("light", "heavy")
            for index in range(10)
        }
        assert len(seeds) == 20  # no collisions across the small grid

    def test_configs_cycle_the_spec_grid(self):
        cases = grid_cases(7, ["light"], len(DEFAULT_GRID) + 1, "local")
        triples = [(c.m, c.u, c.n_nodes) for c in cases]
        assert triples[: len(DEFAULT_GRID)] == list(DEFAULT_GRID)
        assert triples[len(DEFAULT_GRID)] == DEFAULT_GRID[0]
        # The campaign's seeds, and its fault-free instance under chaos.
        assert [c.chaos_seed for c in cases] == [
            trial_seed(7, "light", index) for index in range(len(cases))
        ]
        assert {(c.sender_value, c.faults) for c in cases} == {
            (GRID_VALUE, ())
        }


class TestTrialResult:
    def test_record_only_tier_never_fails(self):
        # A partition can afflict up to u + 1 nodes when the instance has
        # room (u < N // 2); find a seed landing in the record-only tier
        # and check it is recorded, not failed.
        for seed in range(40):
            outcome = run_on_virtual_clock(run_case_async(FuzzCase(
                m=1, u=2, n_nodes=6, sender_value=GRID_VALUE,
                chaos_severity="partition", chaos_seed=seed, timeout=0.25,
                transport="local",
            )))
            (report,) = outcome.reports.values()
            if report.tier == "none":
                assert outcome.ok, outcome.render()
                assert outcome.line().startswith("  [rec] ")
                return
        pytest.skip("no record-only trial in the first 40 seeds")

    def test_json_shape(self):
        report = _grid(11, ["light"], 1)
        (blob,) = report.to_json()["cases"]
        assert parse_case_token(blob["replay"]) == report.outcomes[0].case
        (mode,) = blob["modes"].values()
        assert mode["tier"] in ("byzantine", "degraded", "none")
        assert set(mode["chaos_counts"]) == {
            "drop", "corrupt", "partition", "crash", "restart",
            "dup", "reorder", "delay", "reset",
        }
        assert json.dumps(blob)  # JSON-serializable through and through


class TestCampaign:
    def test_small_campaign_report(self, tmp_path):
        report = _grid(7, ["light", "crash"], 2)
        assert len(report.outcomes) == 4
        assert report.ok  # light/crash on the default grid must pass
        assert report.rerun_mismatches is None  # not a kill-links soak

        blob = report.to_json()
        assert blob["n_cases"] == 4
        assert set(blob["tiers"]) == {"byzantine", "degraded", "none"}
        judged = blob["tiers"]["byzantine"]["trials"] + (
            blob["tiers"]["degraded"]["trials"]
        )
        assert judged, "campaign never exercised an asserted tier"
        assert blob["worst_case_seeds"]  # heaviest-chaos seeds when no failures

        out = tmp_path / "report.json"
        report.save(str(out))
        assert json.loads(out.read_text())["ok"] is True

    def test_same_seed_campaign_is_bit_identical(self, tmp_path):
        first = _grid(13, ["heavy"], 3)
        second = _grid(13, ["heavy"], 3)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        first.save(str(a))
        second.save(str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_rerun_diff_names_what_changed_by_replay_token(self):
        report = _grid(7, ["light"], 2)
        assert rerun_diff(report.outcomes, report.outcomes) == []

        first, second = report.outcomes
        (run,) = first.runs.values()
        counters = run.metrics.counters()
        counter = sorted(counters)[0]
        bumped = {**counters, counter: counters[counter] + 1}
        (mode, other), = second.runs.items()
        forged = replace(other.result, decisions={
            **other.result.decisions, "p1": "forged",
        })
        planted = [
            replace(first, runs={
                mode: replace(run, metrics=SimpleNamespace(
                    counters=lambda: bumped,
                )),
            }),
            replace(second, runs={mode: replace(other, result=forged)}),
        ]
        fingerprint_line, decisions_line = rerun_diff(report.outcomes, planted)
        assert fingerprint_line.startswith(
            f"{first.case.token}: fingerprint diverged"
        )
        assert counter in fingerprint_line
        assert decisions_line == f"{second.case.token}: decisions diverged"

    @pytest.mark.no_wall_timeout
    def test_kill_links_campaign_reruns_itself(self):
        report = _grid(7, ["light", "crash"], 2, kill_links=True)
        assert report.rerun_mismatches == []
        assert report.ok
        assert "same-seed re-run: all 4 trial" in report.render_campaign()
        assert report.verdict().startswith("campaign PASSED (4 trials")

        report.rerun_mismatches = ["token: decisions diverged"]
        assert not report.ok
        assert "NOT reproducible" in report.render_campaign()
        assert "tier byzantine" not in report.render_campaign()
        assert report.verdict() == "campaign FAILED (kill-links determinism)"
