"""Tests for the combinatorial reliability model."""

import math

import pytest

from repro.analysis.reliability import (
    compare_configurations,
    degradable_vs_byzantine,
    fault_count_pmf,
    reliability,
)
from repro.exceptions import AnalysisError


class TestPmf:
    def test_sums_to_one(self):
        for n, p in [(5, 0.1), (7, 0.01), (10, 0.5)]:
            pmf = fault_count_pmf(n, p)
            assert math.isclose(sum(pmf), 1.0, rel_tol=1e-12)
            assert len(pmf) == n + 1

    def test_extremes(self):
        assert fault_count_pmf(4, 0.0) == [1.0, 0.0, 0.0, 0.0, 0.0]
        assert fault_count_pmf(3, 1.0)[-1] == 1.0

    def test_validation(self):
        with pytest.raises(AnalysisError):
            fault_count_pmf(4, 1.5)
        with pytest.raises(AnalysisError):
            fault_count_pmf(0, 0.1)


class TestReliability:
    def test_buckets_partition_probability(self):
        point = reliability(1, 2, 5, 0.1)
        total = point.p_correct + point.p_safe_degraded + point.p_unsafe
        assert math.isclose(total, 1.0, rel_tol=1e-12)

    def test_hand_computed_case(self):
        # m=u=0, N=1: correct iff the single node is fault-free.
        point = reliability(0, 0, 1, 0.2)
        assert math.isclose(point.p_correct, 0.8)
        assert point.p_safe_degraded == 0.0
        assert math.isclose(point.p_unsafe, 0.2)

    def test_byzantine_special_case_has_no_degraded_band(self):
        point = reliability(2, 2, 7, 0.1)
        assert point.p_safe_degraded == 0.0

    def test_infeasible_configuration_rejected(self):
        with pytest.raises(AnalysisError):
            reliability(1, 2, 4, 0.1)
        with pytest.raises(AnalysisError):
            reliability(2, 1, 10, 0.1)

    def test_p_safe_total(self):
        point = reliability(1, 2, 5, 0.1)
        assert math.isclose(
            point.p_safe_total, point.p_correct + point.p_safe_degraded
        )

    def test_as_row(self):
        row = reliability(1, 2, 5, 0.1).as_row()
        assert row[:4] == [1, 2, 5, 0.1]


class TestComparisons:
    def test_seven_node_ordering(self):
        points = compare_configurations(7, 0.02)
        assert [(p.m, p.u) for p in points] == [(2, 2), (1, 4), (0, 6)]

    def test_trading_m_for_u_reduces_unsafe(self):
        points = compare_configurations(7, 0.02)
        unsafe = [p.p_unsafe for p in points]
        assert unsafe[0] > unsafe[1] > unsafe[2]

    def test_trading_m_for_u_reduces_correct(self):
        points = compare_configurations(7, 0.02)
        correct = [p.p_correct for p in points]
        assert correct[0] > correct[1] > correct[2]

    def test_degradable_vs_byzantine_node_counts(self):
        result = degradable_vs_byzantine(1, 2, 0.05)
        assert result["byzantine_m"].n_nodes == 4
        assert result["degradable"].n_nodes == 5
        assert result["byzantine_u"].n_nodes == 7
        assert result["extra_nodes_degradable"] == 1
        assert result["extra_nodes_byzantine_u"] == 3

    def test_degradable_is_safer_than_byzantine_m(self):
        result = degradable_vs_byzantine(1, 3, 0.05)
        assert (
            result["degradable"].p_unsafe < result["byzantine_m"].p_unsafe
        )
