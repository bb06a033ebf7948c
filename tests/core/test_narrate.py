"""Tests for the execution narrator."""

import pytest

from repro.core.behavior import LieAboutSender
from repro.core.narrate import narrate_execution
from repro.core.spec import DegradableSpec
from tests.conftest import node_names


@pytest.fixture
def spec():
    return DegradableSpec(m=1, u=2, n_nodes=5)


NODES = node_names(5)


class TestNarrateExecution:
    def test_clean_run_structure(self, spec):
        text = narrate_execution(spec, NODES, "S", "alpha")
        assert "sender 'S' holds 'alpha'" in text
        assert "round 2" in text and "round 3" in text
        assert "decisions:" in text
        assert "contract SATISFIED" in text

    def test_faulty_messages_flagged(self, spec):
        behaviors = {"p1": LieAboutSender("forged", "S")}
        text = narrate_execution(spec, NODES, "S", "alpha", behaviors)
        assert "from a faulty node" in text
        assert "'forged'" in text
        assert "faulty nodes: ['p1']" in text

    def test_violation_reported(self, spec):
        # Three colluders exceed u: the narration must show the violation
        # when it occurs (beyond u nothing is promised, so force it by
        # classifying against u=2 with f=3 -> regime none -> satisfied;
        # instead check a degraded split renders as two-class).
        behaviors = {
            "p1": LieAboutSender("forged", "S"),
            "p2": LieAboutSender("forged", "S"),
        }
        text = narrate_execution(spec, NODES, "S", "alpha", behaviors)
        assert "regime=degraded" in text
        assert "contract SATISFIED" in text

    def test_elision(self, spec):
        text = narrate_execution(
            spec, NODES, "S", "alpha", max_messages_per_round=2
        )
        assert "more elided" in text

    def test_explicit_faulty_set_overrides(self, spec):
        text = narrate_execution(
            spec, NODES, "S", "alpha", behaviors=None, faulty={"p3"}
        )
        assert "faulty nodes: ['p3']" in text
        assert "[x] p3" in text
