"""Tests for the Monte-Carlo fault-injection harness."""

import os
import subprocess
import sys

import pytest

from repro.analysis.montecarlo import (
    ADVERSARY_ZOO,
    run_campaign,
)
from repro.core.spec import DegradableSpec
from repro.exceptions import AnalysisError


@pytest.fixture
def spec():
    return DegradableSpec(m=1, u=2, n_nodes=5)


class TestCampaign:
    def test_no_violations_within_envelope(self, spec):
        summary = run_campaign(spec, n_trials=400, seed=11)
        assert summary.n_trials == 400
        assert not summary.violations

    def test_reproducible(self, spec):
        a = run_campaign(spec, n_trials=50, seed=3)
        b = run_campaign(spec, n_trials=50, seed=3)
        assert [t.__dict__ for t in a.trials] == [t.__dict__ for t in b.trials]

    def test_same_seed_same_trials_under_any_hash_seed(self):
        """Each factory draws from the campaign RNG, so behaviours must be
        built in a fixed order: iterating the faulty frozenset follows the
        string hash, which differs between processes."""
        probe = (
            "from repro.analysis.montecarlo import run_campaign\n"
            "from repro.core.spec import DegradableSpec\n"
            "summary = run_campaign(DegradableSpec(m=1, u=2, n_nodes=5), "
            "n_trials=300, fault_counts=[2, 3], seed=7)\n"
            "print([(t.n_faulty, t.adversary, t.shape.value, "
            "t.largest_agreeing_class) for t in summary.trials])\n"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", probe],
                env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
                capture_output=True, text=True, check=True, timeout=60,
            ).stdout
            for hash_seed in (0, 1, 3)
        }
        assert len(outputs) == 1

    def test_fault_counts_respected(self, spec):
        summary = run_campaign(spec, n_trials=100, fault_counts=[2], seed=1)
        assert all(t.n_faulty == 2 for t in summary.trials)

    def test_by_fault_count_buckets(self, spec):
        summary = run_campaign(spec, n_trials=300, seed=5)
        buckets = summary.by_fault_count()
        assert set(buckets) <= {0, 1, 2}
        assert sum(b["trials"] for b in buckets.values()) == 300
        for bucket in buckets.values():
            shape_total = (
                bucket["unanimous_value"]
                + bucket["unanimous_default"]
                + bucket["two_class"]
                + bucket["divergent"]
            )
            assert shape_total == bucket["trials"]

    def test_within_envelope_never_divergent(self, spec):
        summary = run_campaign(spec, n_trials=400, seed=13)
        buckets = summary.by_fault_count()
        for f, bucket in buckets.items():
            assert bucket["divergent"] == 0, f

    def test_min_agreeing_meets_guarantee(self, spec):
        summary = run_campaign(spec, n_trials=300, seed=17)
        buckets = summary.by_fault_count()
        for bucket in buckets.values():
            assert bucket["min_agreeing"] >= spec.m + 1

    def test_exclude_sender_fault(self, spec):
        summary = run_campaign(
            spec, n_trials=100, seed=2, include_sender_fault=False
        )
        assert not any(t.sender_faulty for t in summary.trials)

    def test_zoo_names_recorded(self, spec):
        summary = run_campaign(spec, n_trials=200, seed=4)
        assert {t.adversary for t in summary.trials} <= set(ADVERSARY_ZOO)

    def test_n_trials_validated(self, spec):
        with pytest.raises(AnalysisError):
            run_campaign(spec, n_trials=0)

    def test_beyond_envelope_counts_as_none_regime(self, spec):
        summary = run_campaign(
            spec, n_trials=100, fault_counts=[3], seed=9
        )
        assert all(t.regime == "none" for t in summary.trials)
        # nothing is promised, so nothing can be violated
        assert not summary.violations
