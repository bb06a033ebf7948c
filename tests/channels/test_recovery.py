"""Tests for forward/backward recovery and the mission simulator."""

import os
import subprocess
import sys

import pytest

from repro.channels.recovery import (
    MissionSimulator,
    RecoveryAction,
    RecoveryController,
)
from repro.channels.system import DegradableChannelSystem
from repro.core.behavior import LieAboutSender
from repro.exceptions import ConfigurationError


def double(v):
    return v * 2


@pytest.fixture
def system():
    return DegradableChannelSystem(m=1, u=2, computation=double)


def liars(faulty, sender="sensor"):
    return {node: LieAboutSender(99, sender) for node in faulty}


class TestRecoveryController:
    def test_forward_on_clean_step(self, system):
        controller = RecoveryController(system)
        outcome = controller.execute_step(
            21, 0, fault_sampler=lambda s, a: frozenset()
        )
        assert outcome.action is RecoveryAction.FORWARD
        assert outcome.value == 42
        assert outcome.attempts == 1
        assert not outcome.unsafe

    def test_forward_with_masked_fault(self, system):
        controller = RecoveryController(system)
        outcome = controller.execute_step(
            21,
            0,
            fault_sampler=lambda s, a: frozenset({"ch0"}),
            behavior_factory=liars,
        )
        assert outcome.action is RecoveryAction.FORWARD
        assert outcome.value == 42

    def test_backward_recovery_on_transient(self, system):
        # Double fault on attempt 0 (voter sees default), clean on retry.
        def sampler(step, attempt):
            return frozenset({"ch0", "ch1"}) if attempt == 0 else frozenset()

        controller = RecoveryController(system, max_retries=2)
        outcome = controller.execute_step(
            21, 0, fault_sampler=sampler, behavior_factory=liars
        )
        assert outcome.action is RecoveryAction.RETRY
        assert outcome.value == 42
        assert outcome.attempts == 2

    def test_safe_stop_on_persistent_fault(self, system):
        controller = RecoveryController(system, max_retries=2)
        outcome = controller.execute_step(
            21,
            0,
            fault_sampler=lambda s, a: frozenset({"ch0", "ch1"}),
            behavior_factory=liars,
        )
        assert outcome.action is RecoveryAction.SAFE_STOP
        assert outcome.value is None
        assert outcome.attempts == 3
        assert not outcome.unsafe

    def test_negative_retries_rejected(self, system):
        with pytest.raises(ConfigurationError):
            RecoveryController(system, max_retries=-1)


class TestMissionSimulator:
    def test_zero_fault_probability(self, system):
        stats = MissionSimulator(system, fault_probability=0.0, seed=1).run(30)
        assert stats.steps == 30
        assert stats.forward == 30
        assert stats.unsafe == 0
        assert stats.availability == 1.0
        assert stats.safety == 1.0

    def test_moderate_faults_recoverable(self, system):
        stats = MissionSimulator(
            system, fault_probability=0.08, clear_probability=0.8, seed=2
        ).run(100)
        assert stats.steps == 100
        assert stats.forward + stats.recovered + stats.safe_stops == 100
        assert stats.total_attempts >= 100

    def test_safety_holds_within_envelope(self, system):
        # With moderate fault rates the realized fault count rarely exceeds
        # u; unsafe steps should be rare.  We assert on the seeded run.
        stats = MissionSimulator(
            system, fault_probability=0.05, seed=3
        ).run(200)
        assert stats.unsafe <= 2

    def test_reproducible(self, system):
        a = MissionSimulator(system, fault_probability=0.1, seed=5).run(50)
        b = MissionSimulator(system, fault_probability=0.1, seed=5).run(50)
        assert a == b

    def test_same_seed_same_mission_under_any_hash_seed(self):
        """Faults clear and liars are seeded in system.nodes order, not in a
        frozenset's hash order, so a seed means one mission everywhere."""
        probe = (
            "from repro.channels.recovery import MissionSimulator\n"
            "from repro.channels.system import DegradableChannelSystem\n"
            "system = DegradableChannelSystem(m=1, u=2, computation=lambda v: v * 2)\n"
            "print(MissionSimulator(system, fault_probability=0.1, seed=3)"
            ".run(60, sender_value=21))\n"
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

    def test_probability_validated(self, system):
        with pytest.raises(ConfigurationError):
            MissionSimulator(system, fault_probability=1.5)
        with pytest.raises(ConfigurationError):
            MissionSimulator(system, fault_probability=0.5, clear_probability=-1)

    def test_empty_mission(self, system):
        stats = MissionSimulator(system, fault_probability=0.5, seed=1).run(0)
        assert stats.steps == 0
        assert stats.availability == 1.0
