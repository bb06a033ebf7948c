"""Campaign machinery: replay tokens, trial seeds, reports, reproducibility."""

import json
import random
from dataclasses import replace

import pytest

from repro.core.scenario import Instance, node_ids
from repro.core.spec import DegradableSpec
from repro.exceptions import ConfigurationError
from repro.explore import run_on_virtual_clock
from repro.net import LocalBus, run_agreement_async
from repro.net.chaos import (
    DEFAULT_GRID,
    SEVERITIES,
    EndpointRestart,
    TrialConfig,
    campaign_configs,
    make_policy,
    parse_replay,
    run_campaign,
    run_seeded_instance,
    run_trial,
    seeded_policy,
    trial_seed,
)


class TestReplayToken:
    def test_round_trip(self):
        config = TrialConfig(
            m=1, u=2, n_nodes=5, severity="heavy",
            transport="tcp", seed=987654, timeout=0.3,
        )
        assert parse_replay(config.replay_token) == config

    def test_default_timeout_optional_in_token(self):
        config = parse_replay("m=1,u=2,n=5,severity=light,transport=local,seed=3")
        assert config.timeout == 0.25

    @pytest.mark.parametrize("token", [
        "",
        "m=1,u=2",                                        # missing fields
        "m=x,u=2,n=5,severity=light,transport=local,seed=3",  # bad int
        "m=1,u=2,n=5,severity=nope,transport=local,seed=3",   # bad severity
        "m=1;u=2;n=5",                                    # wrong separator
    ])
    def test_malformed_tokens_rejected(self, token):
        with pytest.raises(ConfigurationError):
            parse_replay(token)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrialConfig(m=1, u=2, n_nodes=5, severity="light",
                        transport="carrier-pigeon", seed=1)
        with pytest.raises(ConfigurationError):
            TrialConfig(m=1, u=2, n_nodes=5, severity="light",
                        transport="local", seed=1, timeout=0.0)


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
    """``run_seeded_instance`` is the run-one-net-instance recipe
    ``run_trial``, ``repro trace`` and the fuzzer each spelled out."""

    @pytest.mark.no_wall_timeout
    @pytest.mark.parametrize("kill_links", [False, True])
    @pytest.mark.parametrize("severity", SEVERITIES)
    def test_reproduces_the_inlined_trial(self, severity, kill_links):
        config = TrialConfig(2, 3, 8, severity, "local", 7, kill_links=kill_links)
        spec, nodes = config.instance.spec(), config.instance.nodes()

        async def inlined():
            # run_trial's body, as it read before the recipe had a name.
            policy, rng = seeded_policy(severity, spec, nodes, 7, kill_links)
            return await run_agreement_async(
                spec, nodes, nodes[0], "engage",
                transport=LocalBus(), round_timeout=config.timeout,
                chaos=policy, chaos_rng=rng, supervise=kill_links,
            )

        want = run_on_virtual_clock(inlined())
        got, afflicted, tier = run_on_virtual_clock(run_seeded_instance(
            config.instance, "local", config.timeout, severity, 7, kill_links
        ))
        assert got.result.decisions == want.result.decisions
        assert afflicted == want.chaos.afflicted
        assert tier == spec.guarantee_for(len(afflicted))
        assert got.chaos.counts() == want.chaos.counts()
        assert got.metrics.counters() == want.metrics.counters()

        trial = run_on_virtual_clock(run_trial(config))
        assert trial.decisions == {
            str(n): repr(v) for n, v in want.result.decisions.items()
        }
        assert trial.afflicted == sorted(str(n) for n in afflicted)
        assert (trial.tier, trial.f_eff) == (tier, len(afflicted))
        assert trial.chaos_counts == want.chaos.counts()
        assert trial.fingerprint == want.metrics.counters()

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
        configs = campaign_configs(7, ["light"], len(DEFAULT_GRID) + 1, "local")
        triples = [(c.m, c.u, c.n_nodes) for c in configs]
        assert triples[: len(DEFAULT_GRID)] == list(DEFAULT_GRID)
        assert triples[len(DEFAULT_GRID)] == DEFAULT_GRID[0]


class TestTrialResult:
    def test_record_only_tier_never_fails(self):
        # A partition can afflict up to u + 1 nodes when the instance has
        # room (u < N // 2); find a seed landing in the record-only tier
        # and check it is recorded, not judged.
        for seed in range(40):
            result = run_on_virtual_clock(run_trial(TrialConfig(
                m=1, u=2, n_nodes=6, severity="partition",
                transport="local", seed=seed,
            )))
            if result.tier == "none":
                assert not result.checked
                assert result.passed is None
                assert not result.failed
                return
        pytest.skip("no record-only trial in the first 40 seeds")

    def test_json_shape(self):
        result = run_on_virtual_clock(run_trial(TrialConfig(
            m=1, u=2, n_nodes=5, severity="light",
            transport="local", seed=11,
        )))
        blob = result.to_json()
        assert parse_replay(blob["replay"]) == result.config
        assert blob["tier"] in ("byzantine", "degraded", "none")
        assert set(blob["chaos_counts"]) == {
            "drop", "corrupt", "partition", "crash", "restart",
            "dup", "reorder", "delay", "reset",
        }
        assert json.dumps(blob)  # JSON-serializable through and through


class TestCampaign:
    def test_small_campaign_report(self, tmp_path):
        report = run_on_virtual_clock(
            run_campaign(7, ["light", "crash"], 2, transport="local")
        )
        assert len(report.trials) == 4
        assert report.ok  # light/crash on the default grid must pass

        blob = report.to_json()
        assert blob["n_trials"] == 4
        assert set(blob["tiers"]) == {"byzantine", "degraded", "none"}
        checked = [t for t in report.trials if t.checked]
        assert checked, "campaign never exercised an asserted tier"
        assert blob["worst_case_seeds"]  # heaviest-chaos seeds when no failures

        out = tmp_path / "report.json"
        report.save(str(out))
        assert json.loads(out.read_text())["ok"] is True

    def test_same_seed_campaign_is_bit_identical(self, tmp_path):
        first = run_on_virtual_clock(
            run_campaign(13, ["heavy"], 3, transport="local")
        )
        second = run_on_virtual_clock(
            run_campaign(13, ["heavy"], 3, transport="local")
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        first.save(str(a))
        second.save(str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_rerun_diff_names_what_changed_by_replay_token(self):
        report = run_on_virtual_clock(
            run_campaign(7, ["light"], 2, transport="local")
        )
        assert report.rerun_mismatches is None  # not a kill-links soak
        assert report.diff(report.trials) == []

        first, second = report.trials
        counter = sorted(first.fingerprint)[0]
        planted = [
            replace(first, fingerprint={
                **first.fingerprint, counter: first.fingerprint[counter] + 1,
            }),
            replace(second, decisions={**second.decisions, "p1": "'forged'"}),
        ]
        fingerprint_line, decisions_line = report.diff(planted)
        assert fingerprint_line.startswith(
            f"{first.config.replay_token}: fingerprint diverged"
        )
        assert counter in fingerprint_line
        assert decisions_line == (
            f"{second.config.replay_token}: decisions diverged"
        )

    @pytest.mark.no_wall_timeout
    def test_kill_links_campaign_reruns_itself(self):
        report = run_on_virtual_clock(
            run_campaign(7, ["light", "crash"], 2, kill_links=True)
        )
        assert report.rerun_mismatches == []
        assert report.ok
        assert "same-seed re-run: all 4 trial" in report.render()
        assert report.verdict().startswith("campaign PASSED (4 trials")

        report.rerun_mismatches = ["token: decisions diverged"]
        assert not report.ok
        assert "NOT reproducible" in report.render()
        assert "tier byzantine" not in report.render()
        assert report.verdict() == "campaign FAILED (kill-links determinism)"
