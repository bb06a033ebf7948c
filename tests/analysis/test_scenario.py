"""Tests for declarative scenarios and the golden reference suite."""

import pytest

from repro.analysis.scenario import (
    BEHAVIOR_BUILDERS,
    DEFAULT_MARKER,
    ScenarioSpec,
    ScenarioSuite,
    reference_suite,
)
from repro.core.behavior import (
    ChainLiar,
    ChainTwoFaced,
    ConstantLiar,
    EchoAsBehavior,
    LieAboutSender,
    SilentBehavior,
    TwoFacedBehavior,
)
from repro.core.values import DEFAULT
from repro.exceptions import AnalysisError


class TestScenarioSpec:
    def test_clean_scenario_runs(self):
        spec = ScenarioSpec(name="t", m=1, u=2, n_nodes=5)
        run = spec.run()
        assert run.ok
        assert run.decisions == {f"p{k}": "alpha" for k in range(1, 5)}

    def test_golden_expectations_checked(self):
        spec = ScenarioSpec(
            name="t", m=1, u=2, n_nodes=5, expect={"p1": "WRONG"}
        )
        run = spec.run()
        assert not run.golden_ok
        assert run.mismatches == {"p1": "alpha"}
        assert not run.ok

    def test_default_marker_round_trips(self):
        spec = ScenarioSpec(
            name="t",
            m=1, u=2, n_nodes=5,
            faults={"S": {"kind": "silent"}},
            expect={"p1": DEFAULT_MARKER},
        )
        run = spec.run()
        assert run.ok
        assert run.decisions["p1"] == DEFAULT_MARKER

    def test_unknown_behavior_kind(self):
        spec = ScenarioSpec(
            name="t", m=1, u=2, n_nodes=5,
            faults={"p1": {"kind": "quantum-liar"}},
        )
        with pytest.raises(AnalysisError):
            spec.run()

    def test_unknown_faulty_node(self):
        spec = ScenarioSpec(
            name="t", m=1, u=2, n_nodes=5,
            faults={"ghost": {"kind": "silent"}},
        )
        with pytest.raises(AnalysisError):
            spec.run()

    def test_every_registered_builder_constructs(self):
        # kind -> (builder arguments, class built, what it sends to p1
        # when relaying the sender's value)
        expected = {
            "constant-liar": ({"value": "x"}, ConstantLiar, "x"),
            "silent": ({}, SilentBehavior, DEFAULT),
            "echo-as": ({"value": "x"}, EchoAsBehavior, "x"),
            "two-faced": ({"faces": {"p1": "x"}}, TwoFacedBehavior, "x"),
            "lie-about-sender": (
                {"value": "x", "sender": "S"}, LieAboutSender, "x"
            ),
            "chain-liar": (
                {"value": "x", "sender": "S", "extras": ["p1"]}, ChainLiar, "x"
            ),
            "chain-two-faced": (
                {"faces": {"p1": "x"}, "sender": "S", "extras": []},
                ChainTwoFaced,
                "x",
            ),
        }
        assert set(expected) == set(BEHAVIOR_BUILDERS)
        for kind, (kwargs, cls, sent) in expected.items():
            behavior = BEHAVIOR_BUILDERS[kind](dict(kwargs, kind=kind))
            assert type(behavior) is cls, kind
            assert behavior.send(("S",), "a", "p1", "honest") == sent, kind

    def test_sub_minimal_scenarios_allowed(self):
        spec = ScenarioSpec(name="below", m=1, u=2, n_nodes=4)
        run = spec.run()  # fault-free below the bound still trivially works
        assert run.report.satisfied


class TestSuite:
    def test_reference_suite_all_green(self):
        assert reference_suite().failures() == []

    def test_duplicate_names_rejected(self):
        spec = ScenarioSpec(name="dup", m=1, u=2, n_nodes=5)
        with pytest.raises(AnalysisError):
            ScenarioSuite([spec, spec])

    def test_json_round_trip(self, tmp_path):
        suite = reference_suite()
        path = tmp_path / "suite.json"
        suite.save(str(path))
        loaded = ScenarioSuite.load(str(path))
        assert [s.name for s in loaded.scenarios] == [
            s.name for s in suite.scenarios
        ]
        assert loaded.failures() == []

    def test_schema_checked(self):
        with pytest.raises(AnalysisError):
            ScenarioSuite.from_json('{"schema": "other", "scenarios": []}')

    def test_unknown_fields_rejected(self):
        with pytest.raises(AnalysisError):
            ScenarioSpec.from_dict({"name": "x", "m": 1, "u": 2,
                                    "n_nodes": 5, "surprise": True})

    def test_decoded_sender_value(self):
        spec = ScenarioSpec.from_dict({
            "name": "x", "m": 1, "u": 2, "n_nodes": 5,
            "sender_value": DEFAULT_MARKER,
        })
        assert spec.sender_value is DEFAULT
