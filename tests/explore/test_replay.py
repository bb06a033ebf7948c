"""Replay tokens: one string is the whole execution.

A token must be a *complete* name for an explored execution — config and
schedule, nothing ambient — so the determinism claim is testable as
byte-equality: parse∘render is the identity, and running the same token
twice yields the same fingerprint, the same verdict, the same trail.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.explore import (
    ExploreConfig,
    parse_explore_token,
    run_token,
    trim_schedule,
)


class TestTokenRoundTrip:
    @pytest.mark.parametrize(
        "config,schedule",
        [
            (ExploreConfig(), ()),
            (ExploreConfig(), (1, 0, 2)),
            (ExploreConfig(m=2, u=3, n_nodes=8, sender_value="beta"), (3,)),
            (ExploreConfig(faults=(("p1", "lie"), ("p2", "silent"))), (1,)),
            (ExploreConfig(batching=False, supervise=True), (2, 1)),
            (ExploreConfig(vote_offset=1, round_timeout=0.5), (1,)),
        ],
    )
    def test_parse_inverts_render(self, config, schedule):
        token = config.token(schedule)
        parsed_config, parsed_schedule = parse_explore_token(token)
        assert parsed_config == config
        assert parsed_schedule == trim_schedule(schedule)

    def test_trailing_defaults_are_implied(self):
        config = ExploreConfig()
        assert config.token((1, 0, 0)) == config.token((1,))
        assert trim_schedule((0, 0)) == ()
        assert trim_schedule((1, 0, 2, 0)) == (1, 0, 2)

    @pytest.mark.parametrize(
        "token",
        [
            "",
            "not-a-token",
            "m=1,u=2",  # missing fields
            "m=1,u=2,n=5,value=a,faults=-,timeout=x,batch=1,sup=0,bug=0,sched=-",
            "m=1,u=2,n=5,value=a,faults=-,timeout=1,batch=1,sup=0,bug=0,sched=one",
        ],
    )
    def test_malformed_tokens_raise(self, token):
        with pytest.raises((ConfigurationError, KeyError)):
            parse_explore_token(token)


class TestReplayDeterminism:
    @pytest.mark.parametrize(
        "token",
        [
            ExploreConfig().token(()),
            ExploreConfig().token((1,)),
            ExploreConfig(vote_offset=1).token((1,)),
            ExploreConfig(batching=False).token((3,)),
            ExploreConfig(faults=(("p2", "constant"),)).token((2,)),
        ],
    )
    def test_same_token_same_execution(self, token):
        first = run_token(token)
        second = run_token(token)
        assert first.fingerprint == second.fingerprint
        assert first.ok == second.ok
        assert first.decisions == second.decisions
        assert first.schedule == second.schedule
        assert [p.label for p in first.trail] == [
            p.label for p in second.trail
        ]
        assert first.render() == second.render()

    def test_token_survives_its_own_outcome(self):
        outcome = run_token(ExploreConfig().token((1,)))
        assert run_token(outcome.token).fingerprint == outcome.fingerprint


class TestOneSendPath:
    """The explorer certifies the configuration production runs: its
    stack comes from ``build_stack`` and its runner gets no send-path
    argument of its own."""

    @pytest.mark.parametrize("supervise", [False, True])
    def test_stack_comes_from_build_stack(self, monkeypatch, supervise):
        from repro.explore import explorer
        from repro.explore.transport import ExploredTransport
        from repro.net.supervision import SupervisedTransport

        built = []
        runner_kwargs = []
        real_build, real_runner = explorer.build_stack, explorer.AsyncRoundRunner

        def spy_build(*args):
            built.append((args, real_build(*args)))
            return built[-1][1]

        def spy_runner(session, **kwargs):
            runner_kwargs.append(kwargs)
            return real_runner(session, **kwargs)

        monkeypatch.setattr(explorer, "build_stack", spy_build)
        monkeypatch.setattr(explorer, "AsyncRoundRunner", spy_runner)
        outcome = explorer.run_schedule(ExploreConfig(supervise=supervise))
        assert outcome.ok

        ((args, (stack, chaos_log)),) = built
        base, chaos, chaos_rng, flag = args
        assert isinstance(base, ExploredTransport)
        assert (chaos, chaos_rng) == (None,) * 2
        assert flag is supervise and chaos_log is None
        if supervise:
            assert isinstance(stack, SupervisedTransport)
            assert stack.inner is base
        else:
            assert stack is base
        (kwargs,) = runner_kwargs
        assert kwargs["transport"] is stack
        assert set(kwargs) == {
            "transport", "injectors", "round_timeout", "batching", "events",
        }

    @pytest.mark.parametrize(
        "config,schedule,fingerprint",
        [
            (
                ExploreConfig(supervise=True), (),
                "65baa78c9fb59d24dfc279eb935ab19d4fa144a7956349fd1e4e583b590ded33",
            ),
            (
                ExploreConfig(supervise=True), (1,),
                "989df509e8a7d157f259c88d50368fe41de0ed25b862b7891edfdb738f3b0413",
            ),
            (
                ExploreConfig(batching=False, supervise=True), (2, 1),
                "b211b98e07a1b7a1c5932f4894e133a6e7e999552458a93df38732baf3aff32e",
            ),
        ],
    )
    def test_supervised_tokens_replay_byte_for_byte(
        self, config, schedule, fingerprint
    ):
        """Pinned fingerprints: the supervised stack the explorer certifies
        is byte-for-byte the one ``build_stack`` gives production."""
        assert run_token(config.token(schedule)).fingerprint == fingerprint
