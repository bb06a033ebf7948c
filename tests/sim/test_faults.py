"""Unit tests for the fault injectors."""

import random

import pytest

from repro.core.behavior import ConstantLiar, LieAboutSender, SilentBehavior
from repro.core.values import DEFAULT
from repro.sim.faults import (
    ByzantineRelayInjector,
    CrashInjector,
    MessageCorruptor,
    OmissionInjector,
    SpuriousTimeoutInjector,
    behavior_injectors,
)
from repro.sim.messages import Message, RelayPayload


def relay_msg(source, dest, path, value):
    return Message(
        source=source,
        destination=dest,
        payload=RelayPayload(path=path, value=value),
    )


class TestByzantineRelayInjector:
    def test_honest_node_untouched(self):
        inj = ByzantineRelayInjector({"bad": ConstantLiar("x")})
        msg = relay_msg("good", "r", ("S", "good"), "v")
        assert inj.intercept(1, msg) == [msg]

    def test_faulty_node_payload_rewritten(self):
        inj = ByzantineRelayInjector({"bad": ConstantLiar("x")})
        msg = relay_msg("bad", "r", ("S", "bad"), "v")
        out = inj.intercept(1, msg)
        assert len(out) == 1
        assert out[0].payload.value == "x"
        assert out[0].payload.path == ("S", "bad")
        assert out[0].source == "bad"

    def test_context_path_excludes_relayer(self):
        # LieAboutSender lies only when the *context* is (S,), i.e. when
        # the full payload path is (S, bad).
        inj = ByzantineRelayInjector({"bad": LieAboutSender("x", "S")})
        direct_relay = relay_msg("bad", "r", ("S", "bad"), "v")
        assert inj.intercept(1, direct_relay)[0].payload.value == "x"
        deeper = relay_msg("bad", "r", ("S", "other", "bad"), "v")
        assert inj.intercept(1, deeper)[0].payload.value == "v"

    def test_silent_behavior_sends_default(self):
        inj = ByzantineRelayInjector({"bad": SilentBehavior()})
        out = inj.intercept(1, relay_msg("bad", "r", ("S", "bad"), "v"))
        assert out[0].payload.value is DEFAULT

    def test_non_relay_payload_untouched(self):
        inj = ByzantineRelayInjector({"bad": ConstantLiar("x")})
        msg = Message(source="bad", destination="r", payload="raw")
        assert inj.intercept(1, msg) == [msg]

    def test_behavior_injectors_helper(self):
        injectors = behavior_injectors({"bad": ConstantLiar("x")})
        assert len(injectors) == 1
        assert isinstance(injectors[0], ByzantineRelayInjector)
        # Nobody misbehaves: nothing to intercept, so no injector at all.
        assert behavior_injectors({}) == behavior_injectors(None) == []


class TestOmissionInjector:
    def test_predicate(self):
        inj = OmissionInjector(lambda r, m: r == 2)
        msg = relay_msg("a", "b", ("S", "a"), "v")
        assert inj.intercept(1, msg) == [msg]
        assert inj.intercept(2, msg) == []
        assert inj.dropped == 1

    def test_from_sources(self):
        inj = OmissionInjector.from_sources({"a"})
        assert inj.intercept(1, relay_msg("a", "b", ("S", "a"), 1)) == []
        msg = relay_msg("c", "b", ("S", "c"), 1)
        assert inj.intercept(1, msg) == [msg]

    def test_for_links(self):
        inj = OmissionInjector.for_links({("a", "b")})
        assert inj.intercept(1, relay_msg("a", "b", ("S", "a"), 1)) == []
        msg = relay_msg("a", "c", ("S", "a"), 1)
        assert inj.intercept(1, msg) == [msg]


class TestCrashInjector:
    def test_drops_like_a_source_omission_and_mutes_markers(self):
        inj = CrashInjector({"a"})
        assert inj.intercept(1, relay_msg("a", "b", ("S", "a"), 1)) == []
        msg = relay_msg("c", "b", ("S", "c"), 1)
        assert inj.intercept(1, msg) == [msg]
        assert inj.dropped == 1
        assert inj.mutes_marker(1, "a") and not inj.mutes_marker(1, "c")

    def test_no_other_injector_mutes(self):
        # An omission silences data only: markers still close the round.
        assert not OmissionInjector.from_sources({"a"}).mutes_marker(1, "a")


class TestSpuriousTimeoutInjector:
    def test_faulty_traffic_exempt(self):
        inj = SpuriousTimeoutInjector(1.0, faulty={"bad"}, rng=random.Random(0))
        msg = relay_msg("bad", "b", ("S", "bad"), 1)
        assert inj.intercept(1, msg) == [msg]
        msg = relay_msg("a", "bad", ("S", "a"), 1)
        assert inj.intercept(1, msg) == [msg]

    def test_fault_free_traffic_dropped_at_p1(self):
        inj = SpuriousTimeoutInjector(1.0, faulty=set(), rng=random.Random(0))
        assert inj.intercept(1, relay_msg("a", "b", ("S", "a"), 1)) == []
        assert inj.dropped == 1

    def test_p0_never_drops(self):
        inj = SpuriousTimeoutInjector(0.0, faulty=set(), rng=random.Random(0))
        msg = relay_msg("a", "b", ("S", "a"), 1)
        assert all(inj.intercept(r, msg) == [msg] for r in range(20))

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            SpuriousTimeoutInjector(1.5, faulty=set())

    def test_reproducible(self):
        msgs = [relay_msg("a", "b", ("S", "a"), k) for k in range(50)]
        out1 = [
            bool(SpuriousTimeoutInjector(0.5, set(), random.Random(9)).intercept(1, m))
            for m in msgs[:1]
        ]
        inj_a = SpuriousTimeoutInjector(0.5, set(), random.Random(9))
        inj_b = SpuriousTimeoutInjector(0.5, set(), random.Random(9))
        seq_a = [bool(inj_a.intercept(1, m)) for m in msgs]
        seq_b = [bool(inj_b.intercept(1, m)) for m in msgs]
        assert seq_a == seq_b


class TestMessageCorruptor:
    def test_targeted_corruption(self):
        inj = MessageCorruptor(
            matches=lambda r, m: m.destination == "b",
            transform=lambda m: m.with_payload("junk"),
        )
        hit = Message(source="a", destination="b", payload="ok")
        miss = Message(source="a", destination="c", payload="ok")
        assert inj.intercept(1, hit)[0].payload == "junk"
        assert inj.intercept(1, miss)[0].payload == "ok"
