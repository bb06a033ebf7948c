"""Tests for interactive consistency and the Bhandari-result comparison."""

import pytest

from repro.core.behavior import ConstantLiar, LieAboutSender, TwoFacedBehavior
from repro.core.interactive_consistency import (
    ic_runner_byz,
    run_interactive_consistency,
    vectors_agree,
    vectors_valid,
)
from repro.core.spec import DegradableSpec
from repro.exceptions import ConfigurationError
from tests.conftest import node_names
from tests.core.om import ic_runner_om

NODES = node_names(5)
PRIVATE = {n: f"value-of-{n}" for n in NODES}


class TestValidation:
    def test_missing_private_values(self):
        with pytest.raises(ConfigurationError):
            run_interactive_consistency(
                NODES, {"S": 1}, ic_runner_om(1)
            )


class TestFaultFreeIC:
    def test_om_based(self):
        vectors = run_interactive_consistency(NODES, PRIVATE, ic_runner_om(1))
        assert vectors_agree(vectors, NODES)
        assert vectors_valid(vectors, PRIVATE, NODES)

    def test_byz_based(self):
        spec = DegradableSpec(1, 2, 5)
        vectors = run_interactive_consistency(
            NODES, PRIVATE, ic_runner_byz(spec)
        )
        assert vectors_agree(vectors, NODES)
        assert vectors_valid(vectors, PRIVATE, NODES)


class TestFaultyIC:
    def test_om_one_traitor(self):
        behaviors = {"p1": ConstantLiar("junk")}
        vectors = run_interactive_consistency(
            NODES, PRIVATE, ic_runner_om(1, behaviors)
        )
        fault_free = [n for n in NODES if n != "p1"]
        assert vectors_agree(vectors, fault_free)
        assert vectors_valid(vectors, PRIVATE, fault_free)

    def test_byz_within_m(self):
        spec = DegradableSpec(1, 2, 5)
        behaviors = {"p1": TwoFacedBehavior({"p2": "x", "p3": "y"})}
        vectors = run_interactive_consistency(
            NODES, PRIVATE, ic_runner_byz(spec, behaviors)
        )
        fault_free = [n for n in NODES if n != "p1"]
        assert vectors_agree(vectors, fault_free)


class TestBhandariContrast:
    """The structural point of the paper's Section 2 discussion.

    Interactive consistency builds *vectors over all N senders*; with
    m < f <= u faults, degradable per-sender agreement only guarantees the
    two-class (value-or-default) property per entry, so full IC vectors no
    longer agree — but every entry still degrades gracefully, which is
    exactly the distinction the paper draws against Bhandari's result.
    """

    def test_entries_degrade_gracefully_beyond_m(self):
        spec = DegradableSpec(1, 2, 5)
        behaviors = {
            "p1": LieAboutSender("junk", "S"),
            "p2": LieAboutSender("junk", "S"),
        }
        vectors = run_interactive_consistency(
            NODES, PRIVATE, ic_runner_byz(spec, behaviors)
        )
        fault_free = ["S", "p3", "p4"]
        from repro.core.values import DEFAULT

        for observer in fault_free:
            for sender in fault_free:
                entry = vectors[observer][sender]
                assert entry in (PRIVATE[sender], DEFAULT)

    def test_vectors_may_split_beyond_m_without_violating_per_sender(self):
        spec = DegradableSpec(1, 2, 5)
        behaviors = {
            "p1": LieAboutSender("junk", "S"),
            "p2": LieAboutSender("junk", "S"),
        }
        vectors = run_interactive_consistency(
            NODES, PRIVATE, ic_runner_byz(spec, behaviors)
        )
        fault_free = ["S", "p3", "p4"]
        # Per-sender two-class property holds for every entry (checked
        # above), yet identical full vectors are NOT guaranteed; we only
        # assert the absence of *fabricated* values here.
        for observer in fault_free:
            for sender in fault_free:
                assert vectors[observer][sender] != "junk"
