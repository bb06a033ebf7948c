"""Unit tests for the Process base classes."""

from repro.sim.messages import Message
from repro.sim.node import Process
from tests.sim.processes import IdleProcess, RecordingProcess, ScriptedProcess


class TestDecision:
    def test_initially_undecided(self):
        p = IdleProcess("a")
        assert not p.decided
        assert p.decision is None

    def test_decide_sets_once(self):
        p = IdleProcess("a")
        p.decide("x")
        assert p.decided and p.decision == "x"
        p.decide("y")  # idempotent
        assert p.decision == "x"

    def test_decide_none_counts_as_decided(self):
        p = IdleProcess("a")
        p.decide(None)
        assert p.decided and p.decision is None

    def test_repr(self):
        p = IdleProcess("a")
        assert "running" in repr(p)
        p.decide(1)
        assert "decided" in repr(p)


class TestSendHelper:
    def test_stamps_source(self):
        p = IdleProcess("me")
        msg = p.send("you", "payload", round_no=3, tag="t")
        assert msg == Message(
            source="me", destination="you", payload="payload", round_sent=3, tag="t"
        )


class TestHelpers:
    def test_idle_sends_nothing(self):
        p = IdleProcess("a")
        assert p.step(1, []) == []

    def test_recording_accumulates(self):
        p = RecordingProcess("a")
        m1 = Message(source="x", destination="a", payload=1)
        m2 = Message(source="y", destination="a", payload=2)
        p.step(1, [m1])
        p.step(2, [m2])
        assert p.received == [m1, m2]

    def test_scripted_plays_script(self):
        p = ScriptedProcess("a", {1: [("b", "x")], 3: [("c", "y"), ("b", "z")]})
        assert [m.payload for m in p.step(1, [])] == ["x"]
        assert p.step(2, []) == []
        out = p.step(3, [])
        assert [(m.destination, m.payload) for m in out] == [("c", "y"), ("b", "z")]
