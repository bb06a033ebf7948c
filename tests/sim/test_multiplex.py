"""Tests for process multiplexing and concurrent agreement instances."""

import pytest

from repro.core.behavior import ChainLiar, ConstantLiar, TwoFacedBehavior
from repro.core.spec import DegradableSpec
from repro.core.vector_agreement import (
    classify_vectors,
    run_degradable_interactive_consistency,
)
from repro.exceptions import SimulationError
from repro.sim.multiplex import MultiplexProcess, run_concurrent_agreements
from tests.conftest import node_names
from tests.sim.processes import IdleProcess, RecordingProcess, ScriptedProcess

NODES = node_names(5)
PRIVATE = {n: f"val-{n}" for n in NODES}


@pytest.fixture
def spec():
    return DegradableSpec(m=1, u=2, n_nodes=5)


class TestMultiplexProcess:
    def test_children_validated(self):
        with pytest.raises(SimulationError):
            MultiplexProcess("a", {})
        with pytest.raises(SimulationError):
            MultiplexProcess("a", {"x": IdleProcess("b")})

    def test_merges_outgoing(self):
        mux = MultiplexProcess("a", {
            "one": ScriptedProcess("a", {1: [("b", "x")]}),
            "two": ScriptedProcess("a", {1: [("c", "y")]}),
        })
        out = mux.step(1, [])
        assert {(m.destination, m.payload) for m in out} == {("b", "x"), ("c", "y")}

    def test_inbox_fanned_to_all_children(self):
        r1, r2 = RecordingProcess("a"), RecordingProcess("a")
        mux = MultiplexProcess("a", {"one": r1, "two": r2})
        from repro.sim.messages import Message

        msg = Message(source="b", destination="a", payload=1)
        mux.step(1, [msg])
        assert r1.received == [msg]
        assert r2.received == [msg]

    def test_decides_when_all_children_decided(self):
        c1, c2 = IdleProcess("a"), IdleProcess("a")
        mux = MultiplexProcess("a", {"one": c1, "two": c2})
        mux.step(1, [])
        assert not mux.decided
        c1.decide("x")
        mux.step(2, [])
        assert not mux.decided
        c2.decide("y")
        mux.step(3, [])
        assert mux.decided
        assert mux.decision == {"one": "x", "two": "y"}


class TestConcurrentAgreements:
    def test_fault_free_matches_sequential(self, spec):
        concurrent, _ = run_concurrent_agreements(spec, NODES, PRIVATE)
        sequential = run_degradable_interactive_consistency(
            spec, NODES, PRIVATE
        )
        assert concurrent == sequential

    def test_with_deterministic_faults_matches_sequential(self, spec):
        behaviors = {
            "p1": ChainLiar("junk", "S"),
            "p2": ConstantLiar("junk"),
        }
        concurrent, _ = run_concurrent_agreements(
            spec, NODES, PRIVATE, behaviors
        )
        sequential = run_degradable_interactive_consistency(
            spec, NODES, PRIVATE, behaviors
        )
        # ChainLiar is keyed to sender "S"; ConstantLiar is uniform — both
        # behave identically per-instance in either execution order.
        assert concurrent == sequential

    def test_vector_conditions_hold(self, spec):
        behaviors = {"p3": TwoFacedBehavior({"p1": "x", "p2": "y"})}
        vectors, _ = run_concurrent_agreements(
            spec, NODES, PRIVATE, behaviors
        )
        report = classify_vectors(spec, vectors, PRIVATE, {"p3"})
        assert report.satisfied

    def test_no_instance_crosstalk(self, spec):
        """Every node's entry for every fault-free sender is that sender's
        value — concurrent instances never bleed into each other."""
        vectors, engine = run_concurrent_agreements(spec, NODES, PRIVATE)
        for observer in NODES:
            for sender in NODES:
                assert vectors[observer][sender] == PRIVATE[sender]

    def test_missing_values_rejected(self, spec):
        with pytest.raises(SimulationError):
            run_concurrent_agreements(spec, NODES, {"S": 1})

    def test_message_volume_is_n_instances(self, spec):
        from repro.core.byz import message_count

        _, engine = run_concurrent_agreements(spec, NODES, PRIVATE)
        # trace disabled; use round count instead: all instances share the
        # same m+2 engine rounds rather than running serially.
        assert engine.current_round == spec.rounds + 1
