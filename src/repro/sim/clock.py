"""Hardware clock simulation (substrate for Section 6).

Each node owns a :class:`HardwareClock` that maps real time to a local
reading through a constant drift rate and an adjustable offset:

    ``reading(t) = t * (1 + drift) + offset + sum(corrections)``

Fault-free clocks have ``|drift| <= rho`` for a known bound ``rho``.
Faulty clocks are modelled by :class:`ClockFace` subclasses that may report
*anything* — including different readings to different observers
("two-faced" clocks), which is precisely the behaviour that makes clock
synchronization impossible with a third or more faulty clocks
(Dolev/Halpern/Strong, cited as [3] in the paper).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, Hashable, Optional

from repro.exceptions import ConfigurationError

NodeId = Hashable


class HardwareClock:
    """A drifting, adjustable local clock."""

    def __init__(self, drift: float = 0.0, offset: float = 0.0) -> None:
        self.drift = drift
        self.offset = offset
        self._correction = 0.0

    def read(self, real_time: float) -> float:
        """Local reading at real time *real_time*."""
        return real_time * (1.0 + self.drift) + self.offset + self._correction

    def adjust(self, delta: float) -> None:
        """Apply a synchronization correction (cumulative)."""
        self._correction += delta

    def error(self, real_time: float) -> float:
        """Deviation of the reading from real time."""
        return self.read(real_time) - real_time

    @property
    def total_correction(self) -> float:
        return self._correction

    def __repr__(self) -> str:
        return (
            f"HardwareClock(drift={self.drift:+.2e}, offset={self.offset:+.4f}, "
            f"correction={self._correction:+.4f})"
        )


class ClockFace(ABC):
    """What an *observer* sees when it reads this node's clock.

    Fault-free nodes expose :class:`TrueFace` (everyone sees the hardware
    reading).  Faulty nodes may expose arbitrary faces.
    """

    @abstractmethod
    def read(self, real_time: float, observer: NodeId) -> float:
        """The reading presented to *observer* at *real_time*."""


class TrueFace(ClockFace):
    """Honest face: every observer sees the underlying hardware clock."""

    def __init__(self, clock: HardwareClock) -> None:
        self.clock = clock

    def read(self, real_time: float, observer: NodeId) -> float:
        return self.clock.read(real_time)


class ConstantFace(ClockFace):
    """Stuck clock: always reports the same instant to everyone."""

    def __init__(self, reading: float) -> None:
        self.reading = reading

    def read(self, real_time: float, observer: NodeId) -> float:
        return self.reading


class SkewedFace(ClockFace):
    """Runs at a wildly wrong rate (e.g. 2x) — an obviously faulty clock."""

    def __init__(self, rate: float, offset: float = 0.0) -> None:
        self.rate = rate
        self.offset = offset

    def read(self, real_time: float, observer: NodeId) -> float:
        return real_time * self.rate + self.offset


class TwoFacedClock(ClockFace):
    """Malicious clock: presents observer-dependent readings.

    ``faces`` maps observer ids to an offset *added to real time* for that
    observer; unlisted observers see ``fallback_offset``.  This adversary
    splits honest nodes' opinions, the classic attack on averaging-based
    synchronization.
    """

    def __init__(self, faces: Dict[NodeId, float], fallback_offset: float = 0.0) -> None:
        self.faces = dict(faces)
        self.fallback_offset = fallback_offset

    def read(self, real_time: float, observer: NodeId) -> float:
        return real_time + self.faces.get(observer, self.fallback_offset)


class RandomFace(ClockFace):
    """Reports uniform noise in a window around real time (seeded)."""

    def __init__(self, spread: float, rng: Optional[random.Random] = None) -> None:
        if spread < 0:
            raise ConfigurationError(f"spread must be >= 0, got {spread}")
        self.spread = spread
        self.rng = rng or random.Random(0)

    def read(self, real_time: float, observer: NodeId) -> float:
        return real_time + self.rng.uniform(-self.spread, self.spread)


class ClockEnsemble:
    """All clocks of a system: hardware state + the face each node shows.

    Provides the read matrix the synchronization algorithms consume and the
    skew metrics the experiments report.
    """

    def __init__(self) -> None:
        self.clocks: Dict[NodeId, HardwareClock] = {}
        self.faces: Dict[NodeId, ClockFace] = {}
        self.faulty: set = set()

    def add_good(self, node: NodeId, drift: float = 0.0, offset: float = 0.0) -> HardwareClock:
        clock = HardwareClock(drift=drift, offset=offset)
        self.clocks[node] = clock
        self.faces[node] = TrueFace(clock)
        return clock

    def add_faulty(self, node: NodeId, face: ClockFace) -> None:
        # Faulty nodes still get a hardware clock object so corrections can
        # be "applied" without special-casing, but the face is what others
        # (and the experiments) observe.
        self.clocks[node] = HardwareClock()
        self.faces[node] = face
        self.faulty.add(node)

    @property
    def nodes(self) -> list:
        return sorted(self.clocks, key=str)

    @property
    def fault_free(self) -> list:
        return [n for n in self.nodes if n not in self.faulty]

    def read(self, of: NodeId, by: NodeId, real_time: float) -> float:
        """What node *by* observes when reading node *of*'s clock."""
        return self.faces[of].read(real_time, by)

    def skew(self, real_time: float, among: Optional[list] = None) -> float:
        """Max pairwise difference of hardware readings among *among* nodes.

        Defaults to the fault-free nodes — the quantity synchronization
        must keep bounded.
        """
        nodes = among if among is not None else self.fault_free
        if len(nodes) < 2:
            return 0.0
        readings = [self.clocks[n].read(real_time) for n in nodes]
        return max(readings) - min(readings)

    def max_error(self, real_time: float, among: Optional[list] = None) -> float:
        """Max |reading - real time| — the "approximates real time" metric."""
        nodes = among if among is not None else self.fault_free
        if not nodes:
            return 0.0
        return max(abs(self.clocks[n].error(real_time)) for n in nodes)
