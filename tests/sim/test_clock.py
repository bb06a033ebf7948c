"""Unit tests for the hardware clock substrate."""

import random

import pytest

from repro.exceptions import ConfigurationError
from repro.sim.clock import (
    ClockEnsemble,
    ConstantFace,
    HardwareClock,
    RandomFace,
    SkewedFace,
    TrueFace,
    TwoFacedClock,
)


class TestHardwareClock:
    def test_perfect_clock(self):
        clock = HardwareClock()
        assert clock.read(10.0) == 10.0
        assert clock.error(10.0) == 0.0

    def test_drift(self):
        clock = HardwareClock(drift=0.01)
        assert clock.read(100.0) == pytest.approx(101.0)
        assert clock.error(100.0) == pytest.approx(1.0)

    def test_offset(self):
        clock = HardwareClock(offset=-2.0)
        assert clock.read(10.0) == 8.0

    def test_adjust_cumulative(self):
        clock = HardwareClock()
        clock.adjust(1.5)
        clock.adjust(-0.5)
        assert clock.read(0.0) == 1.0
        assert clock.total_correction == 1.0


class TestFaces:
    def test_true_face_reflects_clock(self):
        clock = HardwareClock(offset=1.0)
        face = TrueFace(clock)
        assert face.read(5.0, observer="anyone") == 6.0

    def test_constant_face(self):
        face = ConstantFace(42.0)
        assert face.read(0.0, "a") == 42.0
        assert face.read(1e9, "b") == 42.0

    def test_skewed_face(self):
        face = SkewedFace(rate=2.0, offset=1.0)
        assert face.read(10.0, "a") == 21.0

    def test_two_faced(self):
        face = TwoFacedClock({"a": 5.0, "b": -5.0}, fallback_offset=0.5)
        assert face.read(10.0, "a") == 15.0
        assert face.read(10.0, "b") == 5.0
        assert face.read(10.0, "c") == 10.5

    def test_random_face_seeded(self):
        f1 = RandomFace(1.0, rng=random.Random(1))
        f2 = RandomFace(1.0, rng=random.Random(1))
        assert [f1.read(5.0, "a") for _ in range(10)] == [
            f2.read(5.0, "a") for _ in range(10)
        ]

    def test_random_face_spread_validated(self):
        with pytest.raises(ConfigurationError):
            RandomFace(-1.0)


class TestEnsemble:
    def build(self):
        ens = ClockEnsemble()
        ens.add_good("a", offset=0.0)
        ens.add_good("b", offset=0.2)
        ens.add_faulty("bad", ConstantFace(99.0))
        return ens

    def test_membership(self):
        ens = self.build()
        assert ens.nodes == ["a", "b", "bad"]
        assert ens.fault_free == ["a", "b"]
        assert ens.faulty == {"bad"}

    def test_read_goes_through_face(self):
        ens = self.build()
        assert ens.read("bad", "a", 5.0) == 99.0
        assert ens.read("b", "a", 5.0) == 5.2

    def test_skew_over_fault_free_only(self):
        ens = self.build()
        assert ens.skew(0.0) == pytest.approx(0.2)

    def test_skew_with_explicit_group(self):
        ens = self.build()
        assert ens.skew(0.0, among=["a"]) == 0.0

    def test_max_error(self):
        ens = self.build()
        assert ens.max_error(10.0) == pytest.approx(0.2)

    def test_faulty_clock_excluded_from_metrics(self):
        ens = self.build()
        # the 99.0 face would dominate if included
        assert ens.skew(0.0) < 1.0
