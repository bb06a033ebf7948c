"""Unit tests for the Byzantine behaviour toolkit."""

import random

from repro.core.behavior import (
    ChainLiar,
    ChainTwoFaced,
    ConstantLiar,
    EchoAsBehavior,
    HonestBehavior,
    LieAboutSender,
    RandomLiar,
    SilentBehavior,
    TwoFacedBehavior,
    behavior_for,
)
from repro.core.values import DEFAULT
from tests.core.behaviors import FunctionBehavior, ScriptedBehavior


class TestBasicBehaviors:
    def test_honest_passthrough(self):
        assert HonestBehavior().send((), "a", "b", 42) == 42

    def test_silent_sends_default(self):
        assert SilentBehavior().send(("S",), "a", "b", 42) is DEFAULT

    def test_constant_liar(self):
        liar = ConstantLiar("wrong")
        assert liar.send((), "a", "b", "right") == "wrong"
        assert liar.send(("S", "x"), "a", "c", "right") == "wrong"

    def test_two_faced(self):
        tf = TwoFacedBehavior({"b": "yes", "c": "no"})
        assert tf.send((), "a", "b", "v") == "yes"
        assert tf.send((), "a", "c", "v") == "no"
        assert tf.send((), "a", "d", "v") == "v"  # honest fallback

    def test_echo_as(self):
        eb = EchoAsBehavior("pretend")
        assert eb.send(("S",), "a", "b", "actual") == "pretend"

    def test_function_behavior(self):
        fb = FunctionBehavior(lambda path, s, d, v: (len(path), d, v))
        assert fb.send(("S",), "a", "b", 1) == (1, "b", 1)


class TestScriptedBehavior:
    def test_script_hit(self):
        sb = ScriptedBehavior({(("S",), "b"): "lie"})
        assert sb.send(("S",), "a", "b", "truth") == "lie"

    def test_script_miss_falls_back_honest(self):
        sb = ScriptedBehavior({(("S",), "b"): "lie"})
        assert sb.send(("S",), "a", "c", "truth") == "truth"
        assert sb.send((), "a", "b", "truth") == "truth"

    def test_custom_fallback(self):
        sb = ScriptedBehavior({}, fallback=SilentBehavior())
        assert sb.send((), "a", "b", "v") is DEFAULT


class TestRandomLiar:
    def test_reproducible_with_seed(self):
        a = RandomLiar([1, 2, 3], rng=random.Random(7))
        b = RandomLiar([1, 2, 3], rng=random.Random(7))
        seq_a = [a.send((), "x", "y", 0) for _ in range(20)]
        seq_b = [b.send((), "x", "y", 0) for _ in range(20)]
        assert seq_a == seq_b

    def test_values_from_domain(self):
        liar = RandomLiar(
            ["a"], rng=random.Random(0), include_honest=False, include_silence=False
        )
        assert all(liar.send((), "x", "y", "h") == "a" for _ in range(5))

    def test_silence_option(self):
        liar = RandomLiar(
            ["a"], rng=random.Random(0), include_honest=False, include_silence=True
        )
        seen = {liar.send((), "x", "y", "h") for _ in range(100)}
        assert seen == {"a", DEFAULT}

    def test_empty_domain_rejected(self):
        try:
            RandomLiar([], rng=random.Random(0))
        except ValueError:
            pass
        else:
            raise AssertionError("empty domain must be rejected")


class TestLieAboutSender:
    def test_lies_only_at_direct_context(self):
        liar = LieAboutSender("alpha", "S")
        assert liar.send(("S",), "a", "b", "beta") == "alpha"
        assert liar.send((), "a", "b", "beta") == "beta"
        assert liar.send(("S", "x"), "a", "b", "beta") == "beta"


class TestChainBehaviors:
    def test_chain_liar_contexts(self):
        liar = ChainLiar("alpha", "S", extras=["e1", "e2"])
        # sender-group chain contexts: lie
        assert liar.send(("S",), "a", "b", "beta") == "alpha"
        assert liar.send(("S", "e1"), "a", "b", "beta") == "alpha"
        assert liar.send(("S", "e2", "e1"), "a", "b", "beta") == "alpha"
        # anything else: honest
        assert liar.send((), "a", "b", "beta") == "beta"
        assert liar.send(("S", "x"), "a", "b", "beta") == "beta"
        assert liar.send(("S", "e1", "x"), "a", "b", "beta") == "beta"
        assert liar.send(("x",), "a", "b", "beta") == "beta"

    def test_chain_liar_degenerates_to_lie_about_sender(self):
        chain = ChainLiar("alpha", "S")
        plain = LieAboutSender("alpha", "S")
        for path in [(), ("S",), ("S", "x"), ("y",)]:
            assert chain.send(path, "a", "b", "beta") == plain.send(
                path, "a", "b", "beta"
            )

    def test_chain_two_faced(self):
        tf = ChainTwoFaced({"a1": "alpha", "b1": "beta"}, "S", extras=["e1"])
        assert tf.send(("S",), "e", "a1", "v") == "alpha"
        assert tf.send(("S", "e1"), "e", "b1", "v") == "beta"
        assert tf.send(("S",), "e", "other", "v") == "v"
        assert tf.send(("S", "x"), "e", "a1", "v") == "v"


class TestHelpers:
    def test_behavior_for_defaults_to_honest(self):
        assert behavior_for(None, "x").send((), "x", "y", 1) == 1
        assert behavior_for({}, "x").send((), "x", "y", 1) == 1

    def test_behavior_for_picks_mapped(self):
        bmap = {"x": ConstantLiar(9)}
        assert behavior_for(bmap, "x").send((), "x", "y", 1) == 9
        assert behavior_for(bmap, "z").send((), "z", "y", 1) == 1
