"""Tests for the message-passing protocol implementation."""

import pytest

from repro.core.behavior import ConstantLiar, LieAboutSender, TwoFacedBehavior
from repro.core.protocol import (
    ProtocolSession,
    execute_degradable_protocol,
    make_byz_processes,
)
from repro.core.spec import DegradableSpec
from repro.core.values import DEFAULT
from repro.exceptions import ConfigurationError
from repro.sim.engine import SynchronousEngine
from repro.sim.faults import OmissionInjector, behavior_injectors
from repro.sim.network import Topology
from repro.sim.trace import EventKind
from tests.conftest import node_names
from tests.core.om import make_om_processes


class TestConstruction:
    def test_node_count_checked(self, spec_1_2):
        with pytest.raises(ConfigurationError):
            make_byz_processes(spec_1_2, node_names(4), "S", "v")

    def test_sender_membership(self, spec_1_2):
        with pytest.raises(ConfigurationError):
            make_byz_processes(spec_1_2, node_names(5), "zz", "v")

    def test_om_sender_membership(self):
        with pytest.raises(ConfigurationError):
            make_om_processes(1, node_names(4), "zz", "v")


class TestFaultFreeRun:
    def test_decisions(self, spec_1_2):
        result, engine = execute_degradable_protocol(
            spec_1_2, node_names(5), "S", "v"
        )
        assert all(d == "v" for d in result.decisions.values())

    def test_rounds_used(self, spec_2_3):
        result, engine = execute_degradable_protocol(
            spec_2_3, node_names(8), "S", "v"
        )
        # depth m+1 = 3 message waves + 1 decision round
        assert engine.current_round == 4

    def test_every_receiver_decides(self, spec_1_2):
        result, _ = execute_degradable_protocol(
            spec_1_2, node_names(5), "S", "v"
        )
        assert set(result.decisions) == set(node_names(5)[1:])

    def test_message_volume_matches_functional(self, spec_1_2):
        from repro.core.byz import message_count

        result, engine = execute_degradable_protocol(
            spec_1_2, node_names(5), "S", "v"
        )
        assert engine.trace.count(EventKind.SENT) == message_count(5, 1)


class TestByzantineRuns:
    def test_two_faced_sender(self, spec_1_2):
        behaviors = {"S": TwoFacedBehavior({"p1": "x", "p2": "y"})}
        result, _ = execute_degradable_protocol(
            spec_1_2, node_names(5), "S", "v", behaviors
        )
        assert len(set(result.decisions.values())) == 1

    def test_degraded_regime(self, spec_1_2):
        behaviors = {
            "p1": LieAboutSender("z", "S"),
            "p2": LieAboutSender("z", "S"),
        }
        result, _ = execute_degradable_protocol(
            spec_1_2, node_names(5), "S", "v", behaviors
        )
        for node, value in result.decisions.items():
            if node not in behaviors:
                assert value in ("v", DEFAULT)


class TestOmissions:
    def test_crashed_sender_yields_default(self, spec_1_2):
        injector = OmissionInjector.from_sources({"S"})
        result, _ = execute_degradable_protocol(
            spec_1_2,
            node_names(5),
            "S",
            "v",
            extra_injectors=[injector],
        )
        assert all(d is DEFAULT for d in result.decisions.values())

    def test_crashed_receiver_is_masked(self, spec_1_2):
        injector = OmissionInjector.from_sources({"p1"})
        result, _ = execute_degradable_protocol(
            spec_1_2,
            node_names(5),
            "S",
            "v",
            extra_injectors=[injector],
        )
        for node, value in result.decisions.items():
            if node != "p1":
                assert value == "v"

    def test_single_lost_link_is_masked(self, spec_1_2):
        # One direct sender->p1 message lost: p1 reconstructs via echoes.
        injector = OmissionInjector.for_links({("S", "p1")})
        result, _ = execute_degradable_protocol(
            spec_1_2,
            node_names(5),
            "S",
            "v",
            extra_injectors=[injector],
        )
        assert result.decisions["p2"] == "v"
        assert result.decisions["p1"] in ("v", DEFAULT)


class TestOMProtocol:
    def test_om_processes_run(self):
        nodes = node_names(4)
        processes = make_om_processes(1, nodes, "S", "v")
        engine = SynchronousEngine(Topology.complete(nodes), processes)
        engine.run(10)
        decisions = {
            p.node_id: p.decision for p in processes if p.node_id != "S"
        }
        assert all(d == "v" for d in decisions.values())

    def test_om_with_traitor_matches_functional(self):
        from repro.core.oral_messages import run_oral_messages

        nodes = node_names(4)
        behaviors = {"p1": ConstantLiar("w")}
        processes = make_om_processes(1, nodes, "S", "v")
        engine = SynchronousEngine(
            Topology.complete(nodes),
            processes,
            injectors=behavior_injectors(behaviors),
        )
        engine.run(10)
        mp = {p.node_id: p.decision for p in processes if p.node_id != "S"}
        fn = run_oral_messages(1, nodes, "S", "v", behaviors).decisions
        assert mp == fn

    def test_om0_single_round(self):
        nodes = node_names(4)
        processes = make_om_processes(0, nodes, "S", "v")
        engine = SynchronousEngine(Topology.complete(nodes), processes)
        engine.run(10)
        assert all(
            p.decision == "v" for p in processes if p.node_id != "S"
        )


class TestExpectedSources:
    """``expected_sources`` answers from a table; the answers did not move."""

    @pytest.mark.parametrize("sender", ["S", "p2"])
    def test_equals_the_round_schedule_spelled_out(self, sender):
        spec = DegradableSpec(m=2, u=2, n_nodes=7)
        nodes = node_names(7)
        session = ProtocolSession.byz(spec, nodes, sender, "v")
        for round_no in range(0, session.total_rounds + 2):
            for node in nodes:
                if node == sender:
                    want = frozenset()
                elif round_no == 1:
                    want = frozenset({sender})
                elif 2 <= round_no <= session.data_rounds:
                    want = frozenset(n for n in nodes if n not in (node, sender))
                else:
                    want = frozenset()
                assert session.expected_sources(round_no, node) == want

    def test_nothing_is_built_per_call_or_per_session(self):
        spec = DegradableSpec(m=1, u=2, n_nodes=5)
        nodes = node_names(5)
        first = ProtocolSession.byz(spec, nodes, "S", "v")
        second = ProtocolSession.byz(spec, list(nodes), "S", "w")
        for round_no in (1, 2, 3):
            assert first.expected_sources(round_no, "p1") is second.expected_sources(
                round_no, "p1"
            )
