"""Tests for the exhaustive adversary search."""

import pytest

from repro.analysis.adversary_search import (
    count_profiles,
    exhaustive_search,
)
from repro.exceptions import AnalysisError


def verify_instance_exhaustively(u):
    """``(at_bound, below_bound)`` searches of a 1/u instance: Theorem 2 in
    both directions, exhaustively over the three-symbol domain."""
    return exhaustive_search(u, 2 + u + 1), exhaustive_search(u, 2 + u, stop_at_first=True)


class TestCountProfiles:
    def test_hand_computed(self):
        # n=4, f=1, domain 3: sender faulty (3^3=27) + each of 3 receivers
        # faulty (3^2=9 each) = 27 + 27 = 54.
        assert count_profiles(4, [1], 3) == 54

    def test_matches_actual_search(self):
        result = exhaustive_search(1, 4, max_faults=1)
        assert result.profiles_checked == count_profiles(4, [1], 3)


class TestAtBound:
    def test_1_1_unbreakable(self):
        at, below = verify_instance_exhaustively(1)
        assert at.contract_unbreakable
        assert at.profiles_checked == count_profiles(4, [1], 3)
        assert not below.contract_unbreakable

    def test_1_2_single_fault_layer(self):
        # Full u=2 search is exercised by the benchmark; unit tests keep to
        # the f=1 layer, which must already be violation-free.
        result = exhaustive_search(2, 5, max_faults=1)
        assert result.contract_unbreakable
        assert result.profiles_checked == count_profiles(5, [1], 3)


class TestBelowBound:
    def test_violating_adversary_found_quickly(self):
        result = exhaustive_search(2, 4, stop_at_first=True)
        assert not result.contract_unbreakable
        witness = result.violations[0]
        assert witness.report.violations

    def test_witness_is_replayable(self):
        """The returned strategy tables reproduce the violation."""
        from repro.analysis.adversary_search import _TableBehavior
        from repro.core.byz import run_degradable_agreement
        from repro.core.conditions import classify
        from repro.core.spec import sub_minimal_spec

        result = exhaustive_search(2, 4, stop_at_first=True)
        witness = result.violations[0]
        spec = sub_minimal_spec(1, 2, 4)
        nodes = ["S", "p1", "p2", "p3"]
        behaviors = {
            node: _TableBehavior(dict(table))
            for node, table in witness.strategies.items()
        }
        agreement = run_degradable_agreement(
            spec, nodes, "S", "alpha", behaviors
        )
        report = classify(agreement, frozenset(witness.faulty), spec)
        assert not report.satisfied


class TestGuards:
    def test_profile_cap(self):
        with pytest.raises(AnalysisError):
            exhaustive_search(3, 6, max_profiles=1000)

    def test_u_validated(self):
        with pytest.raises(AnalysisError):
            exhaustive_search(0, 4)
