"""Tests for the complexity accounting."""

import pytest

from repro.analysis.complexity import (
    byz_complexity,
    crusader_complexity,
    om_complexity,
    survive_u_comparison,
)
from repro.core.byz import message_count, run_degradable_agreement
from repro.core.spec import DegradableSpec
from repro.exceptions import AnalysisError


def verify_message_count(m, u):
    """The closed form against an instrumented fault-free execution."""
    spec = DegradableSpec(m=m, u=u, n_nodes=2 * m + u + 1)
    nodes = [f"p{k}" for k in range(spec.n_nodes)]
    result = run_degradable_agreement(spec, nodes, nodes[0], "v")
    return result.stats.messages == message_count(spec.n_nodes, m)


class TestByzComplexity:
    def test_minimal_node_counts(self):
        point = byz_complexity(1, 2)
        assert point.n_nodes == 5
        assert point.rounds == 2

    def test_messages_match_execution(self):
        for m, u in [(0, 1), (1, 1), (1, 2), (2, 2), (2, 3)]:
            assert verify_message_count(m, u)

    def test_explicit_node_count(self):
        point = byz_complexity(1, 2, n_nodes=7)
        assert point.n_nodes == 7

    def test_as_row(self):
        row = byz_complexity(1, 2).as_row()
        assert row[0] == "BYZ"


class TestOMComplexity:
    def test_shapes(self):
        point = om_complexity(2)
        assert point.n_nodes == 7
        assert point.rounds == 3
        assert point.messages == 6 + 6 * (5 + 5 * 4)

    def test_negative_m(self):
        with pytest.raises(AnalysisError):
            om_complexity(-1)


class TestCrusaderComplexity:
    def test_always_two_rounds(self):
        for f in (1, 2, 3):
            assert crusader_complexity(f).rounds == 2

    def test_negative_f(self):
        with pytest.raises(AnalysisError):
            crusader_complexity(-1)


class TestSurviveUComparison:
    def test_grid_shape(self):
        grid = survive_u_comparison([2, 3])
        assert len(grid) == 2
        # row for u: OM(u) + one BYZ per m in 1..u
        assert len(grid[0]) == 3
        assert len(grid[1]) == 4

    def test_degradable_cheaper_than_full_byzantine(self):
        """The economics claim: surviving u faults safely is cheaper with
        small m than with full OM(u)."""
        for row in survive_u_comparison([2, 3, 4]):
            om = row[0]
            cheapest_byz = min(row[1:], key=lambda p: p.messages)
            assert cheapest_byz.messages < om.messages
            assert cheapest_byz.n_nodes < om.n_nodes
            assert cheapest_byz.rounds < om.rounds

    def test_u_validated(self):
        with pytest.raises(AnalysisError):
            survive_u_comparison([0])
