"""Chaos policies: what a hostile network is allowed to do to one run.

A :class:`ChaosPolicy` is pure configuration — probabilities for per-frame
misbehaviour (loss, duplication, reordering, corruption, added latency)
plus two *scheduled* fault families: :class:`Partition` (a directed link
set severed for an interval of engine rounds, then healed) and
:class:`Crash` (a node's endpoint goes dark from some round on, optionally
restarting later).  The policy itself holds no randomness; every draw is
made by :class:`~repro.net.chaos.transport.ChaosTransport` from one
injected ``random.Random`` — same seed, same chaos, byte for byte.

:func:`make_policy` builds a policy from a severity preset
(:data:`SEVERITIES`), sizing scheduled faults to the spec so soak
campaigns visit all three guarantee tiers of the paper: ``f_eff <= m``
(D.1/D.2 must hold), ``m < f_eff <= u`` (D.3/D.4 must hold) and
``f_eff > u`` (record-only).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import FrozenSet, Hashable, Iterable, Optional, Sequence, Tuple

from repro.core.spec import DegradableSpec
from repro.exceptions import ConfigurationError

NodeId = Hashable

#: Severity presets understood by :func:`make_policy` (and the CLI).
SEVERITIES = ("light", "heavy", "partition", "crash")


@dataclass(frozen=True)
class Partition:
    """A set of directed links severed for engine rounds ``[start, stop)``.

    ``afflicted`` names the nodes the fault is *charged to* for the
    paper's accounting: the smaller side of the cut.  Charging one side is
    sound — every deviation the partition causes is explainable as
    (omission-)faulty behaviour of that side alone: its outgoing messages
    vanish, and its members' later relays are computed from a damaged view,
    which the Byzantine fault model already permits of faulty nodes.
    """

    links: FrozenSet[Tuple[NodeId, NodeId]]
    start_round: int
    stop_round: int
    afflicted: FrozenSet[NodeId]

    def __post_init__(self) -> None:
        if self.start_round < 1 or self.stop_round <= self.start_round:
            raise ConfigurationError(
                f"partition interval must satisfy 1 <= start < stop, got "
                f"[{self.start_round}, {self.stop_round})"
            )

    def active(self, round_no: int) -> bool:
        return self.start_round <= round_no < self.stop_round

    def severs(self, round_no: int, source: NodeId, destination: NodeId) -> bool:
        return self.active(round_no) and (source, destination) in self.links

    @classmethod
    def split(
        cls,
        group_a: Iterable[NodeId],
        group_b: Iterable[NodeId],
        start_round: int,
        stop_round: int,
    ) -> "Partition":
        """Sever every link between the two groups, both directions."""
        side_a, side_b = frozenset(group_a), frozenset(group_b)
        if side_a & side_b:
            raise ConfigurationError(
                f"partition groups overlap: {sorted(side_a & side_b, key=str)}"
            )
        links = frozenset(
            {(a, b) for a in side_a for b in side_b}
            | {(b, a) for a in side_a for b in side_b}
        )
        smaller = min(side_a, side_b, key=lambda s: (len(s), sorted(map(str, s))))
        return cls(
            links=links,
            start_round=start_round,
            stop_round=stop_round,
            afflicted=smaller,
        )

    @classmethod
    def sever_links(
        cls,
        links: Iterable[Tuple[NodeId, NodeId]],
        start_round: int,
        stop_round: int,
    ) -> "Partition":
        """Sever specific directed links; faults charged to the sources."""
        link_set = frozenset(links)
        return cls(
            links=link_set,
            start_round=start_round,
            stop_round=stop_round,
            afflicted=frozenset(source for source, _ in link_set),
        )


@dataclass(frozen=True)
class Crash:
    """A node whose endpoint goes dark at ``at_round``.

    While dark, everything the node sends *and* everything sent to it is
    lost — including end-of-round markers, so its peers genuinely ride out
    the round deadline (the timeout path of assumption (b)).  With
    ``restart_round`` set the endpoint returns; the restarted node missed
    whole waves, substitutes ``V_d`` for them, and keeps running — its
    decision simply no longer counts as a fault-free one.
    """

    node: NodeId
    at_round: int
    restart_round: Optional[int] = None

    def __post_init__(self) -> None:
        if self.at_round < 1:
            raise ConfigurationError(
                f"crash round must be >= 1, got {self.at_round}"
            )
        if self.restart_round is not None and self.restart_round <= self.at_round:
            raise ConfigurationError(
                f"restart round {self.restart_round} must be after the "
                f"crash round {self.at_round}"
            )

    def dark(self, round_no: int) -> bool:
        if round_no < self.at_round:
            return False
        return self.restart_round is None or round_no < self.restart_round


@dataclass(frozen=True)
class EndpointRestart:
    """A node's *transport endpoint* is killed and restarted at a round.

    Unlike :class:`Crash` (a chaos-layer fiction: frames are severed but
    the socket machinery never notices), an endpoint restart is executed
    against the real transport — the listening socket dies, pooled
    connections touching the node are severed, queued-but-unconsumed
    frames are lost, and the node returns on a fresh port.  It exercises
    the reconnect path of :mod:`repro.net.supervision` for real.
    """

    node: NodeId
    at_round: int

    def __post_init__(self) -> None:
        if self.at_round < 1:
            raise ConfigurationError(
                f"restart round must be >= 1, got {self.at_round}"
            )


@dataclass(frozen=True)
class ChaosPolicy:
    """Per-link misbehaviour probabilities plus scheduled faults.

    Probabilities apply independently per DATA frame; end-of-round markers
    are only touched by partitions and crashes (losing a marker without
    losing the data it fences would slow rounds without modelling any
    paper fault).  ``latency`` is a uniform ``(min, max)`` range in
    seconds, applied with probability ``latency_probability`` — keep it
    well under the round deadline or honest frames start missing rounds.

    ``link_resets`` lists engine rounds at whose *onset* (first frame of
    the round) every pooled transport connection is hard-reset;
    ``restarts`` schedules real endpoint crash-restarts
    (:class:`EndpointRestart`).  Both execute against the wrapped
    transport's fault seams and are what ``repro chaos --kill-links``
    drives.
    """

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    reorder_probability: float = 0.0
    corrupt_probability: float = 0.0
    latency_probability: float = 0.0
    latency: Tuple[float, float] = (0.0, 0.0)
    partitions: Tuple[Partition, ...] = ()
    crashes: Tuple[Crash, ...] = ()
    link_resets: Tuple[int, ...] = ()
    restarts: Tuple[EndpointRestart, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "drop_probability",
            "duplicate_probability",
            "reorder_probability",
            "corrupt_probability",
            "latency_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {value}"
                )
        low, high = self.latency
        if low < 0 or high < low:
            raise ConfigurationError(
                f"latency range must satisfy 0 <= min <= max, got {self.latency}"
            )
        crashed = [c.node for c in self.crashes]
        if len(crashed) != len(set(crashed)):
            raise ConfigurationError(f"duplicate crash nodes: {crashed}")
        for round_no in self.link_resets:
            if round_no < 1:
                raise ConfigurationError(
                    f"link reset round must be >= 1, got {round_no}"
                )

    # ------------------------------------------------------------------
    # Queries (used by ChaosTransport on every frame)
    # ------------------------------------------------------------------
    def severed_by(
        self, round_no: int, source: NodeId, destination: NodeId
    ) -> Optional[Partition]:
        """The partition severing this link this round, if any."""
        for partition in self.partitions:
            if partition.severs(round_no, source, destination):
                return partition
        return None

    def crashed(self, round_no: int, node: NodeId) -> Optional[Crash]:
        """The crash keeping *node* dark this round, if any."""
        for crash in self.crashes:
            if crash.node == node and crash.dark(round_no):
                return crash
        return None

    def partition_active(self, round_no: int) -> bool:
        return any(p.active(round_no) for p in self.partitions)

    @property
    def is_quiet(self) -> bool:
        """True when the policy can never touch a frame."""
        return (
            self.drop_probability == 0.0
            and self.duplicate_probability == 0.0
            and self.reorder_probability == 0.0
            and self.corrupt_probability == 0.0
            and self.latency_probability == 0.0
            and not self.partitions
            and not self.crashes
            and not self.link_resets
            and not self.restarts
        )


# ----------------------------------------------------------------------
# Severity presets
# ----------------------------------------------------------------------
def make_policy(
    severity: str,
    spec: DegradableSpec,
    nodes: Sequence[NodeId],
    rng: random.Random,
    seed: int = 0,
) -> ChaosPolicy:
    """Build a preset policy sized to one agreement instance.

    *rng* chooses the victims (partition sides, crash sets, schedules);
    campaigns pass the same ``random.Random`` they later hand to
    :class:`~repro.net.chaos.transport.ChaosTransport`, so one trial seed
    determines both the policy and every per-frame draw.

    * ``light`` — background noise only: rare loss, some duplication and
      reordering, sub-millisecond latency.  ``f_eff`` stays small.
    * ``heavy`` — aggressive loss, corruption and jitter on every link.
    * ``partition`` — a scheduled cut (group size drawn from 1 to just
      past ``u``, so some trials land in the record-only tier) plus light
      duplication noise.
    * ``crash`` — one to ``u`` nodes go dark mid-run, roughly half of
      them restarting a round later.
    """
    if severity not in SEVERITIES:
        raise ConfigurationError(
            f"unknown severity {severity!r}; choose from {SEVERITIES}"
        )
    rounds = spec.rounds + 1
    if severity == "light":
        return ChaosPolicy(
            drop_probability=0.02,
            duplicate_probability=0.05,
            reorder_probability=0.05,
            latency_probability=0.2,
            latency=(0.0002, 0.002),
            seed=seed,
        )
    if severity == "heavy":
        return ChaosPolicy(
            drop_probability=0.12,
            duplicate_probability=0.10,
            reorder_probability=0.10,
            corrupt_probability=0.06,
            latency_probability=0.3,
            latency=(0.0002, 0.003),
            seed=seed,
        )
    if severity == "partition":
        max_side = max(1, min(spec.u + 1, len(nodes) // 2))
        side_size = 1 + rng.randrange(max_side)
        side = rng.sample(list(nodes), side_size)
        rest = [n for n in nodes if n not in side]
        start = 1 + rng.randrange(max(1, rounds - 1))
        duration = 1 + rng.randrange(2)
        return ChaosPolicy(
            duplicate_probability=0.05,
            partitions=(
                Partition.split(side, rest, start, start + duration),
            ),
            seed=seed,
        )
    # severity == "crash"
    n_crashes = 1 + rng.randrange(max(1, spec.u))
    victims = rng.sample(list(nodes), min(n_crashes, len(nodes) - 1))
    crashes = []
    for victim in victims:
        at_round = 1 + rng.randrange(max(1, rounds - 1))
        restart = at_round + 1 if rng.random() < 0.5 else None
        crashes.append(Crash(node=victim, at_round=at_round, restart_round=restart))
    return ChaosPolicy(
        duplicate_probability=0.05,
        crashes=tuple(crashes),
        seed=seed,
    )


def seeded_policy(
    severity: str,
    spec: DegradableSpec,
    nodes: Sequence[NodeId],
    seed: int,
    kill_links: bool = False,
) -> Tuple[ChaosPolicy, random.Random]:
    """The seeded chaos recipe: a preset policy and the RNG that built it.

    One ``Random(seed)`` chooses the policy's victims (and the kill-links
    victim, when asked) and must then be handed, as it stands, to the
    chaos layer (``chaos_rng=``) for every per-frame draw — that sharing
    is what makes a run a pure function of ``(severity, spec, seed)``.

    *kill_links* layers the self-healing soak on the preset: a hard reset
    of every pooled connection at the onset of every relay round, and a
    crash-restart of one receiver's endpoint at round 2 — a supervisor
    must re-dial through both.  Relay-round resets are what produce real
    *reconnects*: a directed link is reused across rounds only when the
    recursion is deep enough (m >= 2), so deeper specs exercise the
    re-dial path while shallow ones still exercise reset/restart healing.
    """
    rng = random.Random(seed)
    policy = make_policy(severity, spec, nodes, rng, seed=seed)
    if kill_links:
        receivers = nodes[1:]
        victim = receivers[rng.randrange(len(receivers))]
        policy = replace(
            policy,
            link_resets=tuple(range(2, spec.rounds + 1)),
            restarts=(EndpointRestart(node=victim, at_round=2),),
        )
    return policy, rng
