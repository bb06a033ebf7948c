"""Sync/async equivalence: the acceptance suite for the net runtime.

For a parametrized grid of (m, u, N, behaviour) scenarios — fault-free,
liars within m, colluding liars in the degraded band, silent nodes, a
two-faced sender, the m = 0 special case and a depth-3 recursion — the
async runtime over both ``LocalBus`` and ``TcpTransport`` must produce
exactly the per-receiver decisions and D.1–D.4 classification that the
synchronous engine produces, including identical ``V_d`` substitution
counts.  This is what makes the async runtime a *runtime* and not a fork
of the protocol.

Both wire modes are held to that bar: the batched path (one BATCH frame
per directed link per round, the default) and the legacy unbatched path
(one frame per message plus a marker mesh) must be decision-,
substitution- and verdict-identical — to the synchronous engine and to
each other, including under scheduled chaos (partitions, crashes).  The
only permitted difference is the wire story: strictly fewer frames on
the batched path.
"""

import asyncio

import pytest

from repro.core.behavior import (
    ConstantLiar,
    LieAboutSender,
    SilentBehavior,
    TwoFacedBehavior,
)
from repro.core.conditions import classify
from repro.core.protocol import execute_degradable_protocol
from repro.core.spec import DegradableSpec
from repro.core.values import DEFAULT
from repro.explore.clock import run_on_virtual_clock
from repro.net import LocalBus, TcpTransport, run_agreement_async
from repro.net.chaos import ChaosPolicy, Crash, Partition

from tests.conftest import node_names


def _two_faced_sender(nodes):
    return TwoFacedBehavior(
        {p: ("x" if i % 2 else "y") for i, p in enumerate(nodes)}
    )


def scenario(name, m, u, n, faulty_behaviors):
    """(name, spec, nodes, behaviors, faulty-set) tuple for the grid."""
    spec = DegradableSpec(m=m, u=u, n_nodes=n)
    nodes = node_names(n)
    behaviors = faulty_behaviors(nodes)
    return pytest.param(
        spec, nodes, behaviors, frozenset(behaviors), id=name
    )


SCENARIOS = [
    scenario("clean-1-2", 1, 2, 5, lambda nodes: {}),
    scenario(
        "one-liar", 1, 2, 5,
        lambda nodes: {"p1": LieAboutSender("forged", "S")},
    ),
    scenario(
        "degraded-two-liars", 1, 2, 5,
        lambda nodes: {
            "p1": LieAboutSender("forged", "S"),
            "p2": LieAboutSender("forged", "S"),
        },
    ),
    scenario(
        "silent-receiver", 1, 2, 5,
        lambda nodes: {"p1": SilentBehavior()},
    ),
    scenario(
        "constant-liar-roomy", 1, 2, 6,
        lambda nodes: {"p1": ConstantLiar("noise")},
    ),
    scenario(
        "two-faced-sender", 1, 2, 5,
        lambda nodes: {"S": _two_faced_sender(nodes)},
    ),
    scenario("m0-clean", 0, 3, 4, lambda nodes: {}),
    scenario(
        "m0-silent-receivers", 0, 3, 5,
        lambda nodes: {"p1": SilentBehavior(), "p2": SilentBehavior()},
    ),
    scenario("deep-2-3-clean", 2, 3, 8, lambda nodes: {}),
    scenario(
        "deep-2-3-degraded", 2, 3, 8,
        lambda nodes: {
            "p1": LieAboutSender("forged", "S"),
            "p2": LieAboutSender("forged", "S"),
            "p3": LieAboutSender("forged", "S"),
        },
    ),
]

#: TCP reruns a representative subset (sockets are slower than queues).
TCP_SCENARIOS = [SCENARIOS[0], SCENARIOS[2], SCENARIOS[5], SCENARIOS[7]]

VALUE = "engage"


def _run_async(spec, nodes, behaviors, transport, batching=True):
    outcome = asyncio.run(
        run_agreement_async(
            spec, nodes, "S", VALUE, behaviors=behaviors,
            transport=transport, batching=batching,
        )
    )
    return outcome


def _assert_equivalent(spec, nodes, behaviors, faulty, transport, batching=True):
    sync_result, _ = execute_degradable_protocol(
        spec, nodes, "S", VALUE, dict(behaviors)
    )
    outcome = _run_async(
        spec, nodes, dict(behaviors), transport, batching=batching
    )
    async_result = outcome.result

    assert async_result.decisions == sync_result.decisions
    # V_d must survive the wire as the very same singleton.
    for node, value in async_result.decisions.items():
        if sync_result.decisions[node] is DEFAULT:
            assert value is DEFAULT, node

    sync_report = classify(sync_result, faulty, spec)
    async_report = classify(async_result, faulty, spec)
    for attribute in ("regime", "shape", "satisfied", "d1", "d2", "d3", "d4"):
        assert getattr(async_report, attribute) == getattr(
            sync_report, attribute
        ), attribute
    assert async_report.violations == sync_report.violations

    # Same messages emitted, same absences substituted.
    assert async_result.stats.messages == sync_result.stats.messages
    assert async_result.stats.substitutions == sync_result.stats.substitutions
    assert outcome.metrics.total_messages <= async_result.stats.messages


class TestLocalBusEquivalence:
    @pytest.mark.parametrize("spec, nodes, behaviors, faulty", SCENARIOS)
    def test_matches_synchronous_engine(self, spec, nodes, behaviors, faulty):
        _assert_equivalent(spec, nodes, behaviors, faulty, LocalBus())


class TestTcpEquivalence:
    @pytest.mark.parametrize("spec, nodes, behaviors, faulty", TCP_SCENARIOS)
    def test_matches_synchronous_engine(self, spec, nodes, behaviors, faulty):
        _assert_equivalent(spec, nodes, behaviors, faulty, TcpTransport())


class TestUnbatchedEquivalence:
    """The legacy one-frame-per-message path is held to the same bar."""

    @pytest.mark.parametrize("spec, nodes, behaviors, faulty", SCENARIOS)
    def test_matches_synchronous_engine(self, spec, nodes, behaviors, faulty):
        _assert_equivalent(
            spec, nodes, behaviors, faulty, LocalBus(), batching=False
        )

    @pytest.mark.parametrize("spec, nodes, behaviors, faulty", TCP_SCENARIOS)
    def test_matches_synchronous_engine_over_tcp(
        self, spec, nodes, behaviors, faulty
    ):
        _assert_equivalent(
            spec, nodes, behaviors, faulty, TcpTransport(), batching=False
        )


def _mode_fingerprint(outcome, faulty, spec):
    report = classify(outcome.result, faulty, spec)
    return (
        dict(outcome.result.decisions),
        outcome.result.stats.substitutions,
        report.regime,
        report.shape,
        report.satisfied,
        tuple(report.violations),
    )


class TestWireModeEquivalence:
    """Batched vs unbatched, compared to each other directly: identical
    decisions, substitutions and D.1–D.4 verdicts; strictly fewer wire
    frames on the batched path."""

    @pytest.mark.parametrize("spec, nodes, behaviors, faulty", SCENARIOS)
    def test_modes_agree_and_batching_shrinks_the_wire(
        self, spec, nodes, behaviors, faulty
    ):
        batched = _run_async(
            spec, nodes, dict(behaviors), LocalBus(), batching=True
        )
        unbatched = _run_async(
            spec, nodes, dict(behaviors), LocalBus(), batching=False
        )
        assert _mode_fingerprint(batched, faulty, spec) == _mode_fingerprint(
            unbatched, faulty, spec
        )
        assert batched.metrics.total_frames < unbatched.metrics.total_frames
        assert batched.metrics.total_frames_batched > 0
        assert unbatched.metrics.total_frames_batched == 0

    def test_headline_frame_reduction_over_tcp(self):
        """The acceptance bar: >= 3x fewer wire frames for N=7, m=2."""
        spec = DegradableSpec(m=2, u=2, n_nodes=7)
        nodes = node_names(7)
        batched = _run_async(spec, nodes, {}, TcpTransport(), batching=True)
        unbatched = _run_async(spec, nodes, {}, TcpTransport(), batching=False)
        assert batched.result.decisions == unbatched.result.decisions
        reduction = (
            unbatched.metrics.total_frames / batched.metrics.total_frames
        )
        assert reduction >= 3.0, (
            f"frame reduction {reduction:.2f}x below the 3x bar "
            f"({unbatched.metrics.total_frames} -> "
            f"{batched.metrics.total_frames})"
        )


#: Scheduled chaos (no probabilistic draws, so both wire modes face the
#: exact same severed links): a one-round partition isolating p1, and p1
#: crashing outright at round 1.
CHAOS_SCHEDULES = [
    pytest.param(
        ChaosPolicy(partitions=(
            Partition.split(["p1"], ["S", "p2", "p3", "p4"], 1, 2),
        )),
        id="partition-round1",
    ),
    pytest.param(
        ChaosPolicy(crashes=(Crash(node="p1", at_round=1),)),
        id="crash-at-round1",
    ),
    pytest.param(
        ChaosPolicy(
            partitions=(
                Partition.sever_links([("S", "p1"), ("p2", "p3")], 2, 3),
            ),
            crashes=(Crash(node="p4", at_round=2),),
        ),
        id="mixed-links-and-crash",
    ),
]


class TestWireModeEquivalenceUnderScheduledChaos:
    @pytest.mark.parametrize("policy", CHAOS_SCHEDULES)
    def test_modes_agree_under_partitions_and_crashes(self, policy):
        spec = DegradableSpec(m=1, u=2, n_nodes=5)
        nodes = node_names(5)
        afflicted = frozenset().union(
            *(p.afflicted for p in policy.partitions),
            frozenset(c.node for c in policy.crashes),
        )

        def run(batching):
            return run_on_virtual_clock(
                run_agreement_async(
                    spec, nodes, "S", VALUE,
                    transport=LocalBus(),
                    round_timeout=0.3,
                    chaos=policy,
                    batching=batching,
                )
            )

        batched = run(True)
        unbatched = run(False)
        assert _mode_fingerprint(
            batched, afflicted, spec
        ) == _mode_fingerprint(unbatched, afflicted, spec)
        # The schedule actually bit — this is not vacuous equivalence.
        assert batched.metrics.total_chaos_drops > 0
        assert batched.metrics.total_timeouts > 0


class TestRunnerShape:
    def test_rounds_executed_match_engine(self, spec_1_2):
        nodes = node_names(5)
        sync_result, _ = execute_degradable_protocol(
            spec_1_2, nodes, "S", VALUE
        )
        outcome = _run_async(spec_1_2, nodes, {}, LocalBus())
        assert outcome.result.stats.rounds == sync_result.stats.rounds

    def test_tcp_metrics_report_real_bytes(self, spec_1_2):
        nodes = node_names(5)
        outcome = _run_async(spec_1_2, nodes, {}, TcpTransport())
        assert outcome.metrics.total_bytes > 0
        assert outcome.metrics.latency_percentiles()["p50"] >= 0.0
