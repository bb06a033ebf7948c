"""Seed determinism: same seed, same chaos, byte for byte.

The replay story of the soak campaigns depends on every trial being a pure
function of its config — no wall clock, no global RNG, no event-loop races
leaking into observable state.  These tests run full agreements twice with
identical seeds and require identical decisions, identical chaos event
streams and identical :meth:`NetMetrics.counters` fingerprints, on both the
in-process bus and real TCP sockets.
"""

import asyncio
import random

import pytest

from repro.core.spec import DegradableSpec
from repro.exceptions import TransportError
from repro.explore.clock import run_on_virtual_clock
from repro.net import LocalBus, TcpTransport, run_agreement_async
from repro.net.chaos import ChaosPolicy
from repro.verify.fuzz import FuzzCase, run_case_async

from tests.conftest import node_names
from tests.net.flaky import FlakyTransport

VALUE = "engage"

#: A policy exercising every probabilistic mechanism at once.
NOISY = ChaosPolicy(
    drop_probability=0.10,
    duplicate_probability=0.10,
    reorder_probability=0.10,
    corrupt_probability=0.08,
    latency_probability=0.2,
    latency=(0.0002, 0.001),
)


def run_once(transport_factory, seed, batching=True):
    spec = DegradableSpec(m=1, u=2, n_nodes=5)
    nodes = node_names(5)
    # Real sockets need the real clock; the bus runs on the virtual one.
    run = run_on_virtual_clock if transport_factory is LocalBus else asyncio.run
    return run(
        run_agreement_async(
            spec, nodes, "S", VALUE,
            transport=transport_factory(),
            round_timeout=0.5,
            chaos=NOISY,
            chaos_rng=random.Random(seed),
            batching=batching,
        )
    )


def fingerprint(outcome):
    return (
        dict(outcome.result.decisions),
        outcome.result.stats.substitutions,
        outcome.chaos.counts(),
        [
            (e.kind, e.round_no, e.source, e.destination)
            for e in outcome.chaos.events
        ],
        outcome.metrics.counters(),
    )


class TestSameSeedSameRun:
    def test_local_bus(self):
        first = run_once(LocalBus, seed=42)
        second = run_once(LocalBus, seed=42)
        assert fingerprint(first) == fingerprint(second)
        # The chaos actually fired — this is not vacuous determinism.
        assert sum(first.chaos.counts().values()) > 0

    def test_tcp(self):
        first = run_once(TcpTransport, seed=42)
        second = run_once(TcpTransport, seed=42)
        assert fingerprint(first) == fingerprint(second)
        assert sum(first.chaos.counts().values()) > 0

    def test_different_seeds_diverge(self):
        first = run_once(LocalBus, seed=1)
        second = run_once(LocalBus, seed=2)
        assert fingerprint(first)[3] != fingerprint(second)[3]

    def test_unbatched_wire_mode(self):
        # The legacy path draws chaos per DATA/MARK frame; the draw
        # sequence (and hence every counter, late_frames included) must
        # still be a pure function of the seed.
        first = run_once(LocalBus, seed=42, batching=False)
        second = run_once(LocalBus, seed=42, batching=False)
        assert fingerprint(first) == fingerprint(second)
        assert sum(first.chaos.counts().values()) > 0
        # Stale frames (markers included) are metered, not swallowed:
        # the late_frames counter is part of the replay fingerprint.
        counters = first.metrics.counters()
        assert any(key.endswith("late_frames") for key in counters)

    def test_batched_mode_never_reorders_batches(self):
        # The reorder hold applies only to DATA frames: with one BATCH
        # frame per link per round, holding one back would manufacture
        # absence from an event classified as benign, unsoundly
        # shrinking f_eff.  NOISY reorders with p=0.1, yet a batched run
        # must record zero reorder events.
        for seed in (1, 7, 42):
            outcome = run_once(LocalBus, seed=seed, batching=True)
            assert outcome.metrics.total_chaos_reorders == 0
            assert outcome.chaos.counts().get("reorder", 0) == 0
        # ...while the unbatched path does exercise the hold (same
        # seeds), proving the assertion above is not vacuous.
        assert any(
            run_once(LocalBus, seed=seed, batching=False)
            .metrics.total_chaos_reorders > 0
            for seed in (1, 7, 42)
        )


class TestTrialDeterminism:
    @pytest.mark.parametrize("severity", ["heavy", "partition", "crash"])
    def test_same_config_same_result(self, severity):
        case = FuzzCase(
            m=1, u=2, n_nodes=5, sender_value=VALUE, chaos_severity=severity,
            chaos_seed=1234, timeout=0.25, transport="local",
        )
        first = run_on_virtual_clock(run_case_async(case))
        second = run_on_virtual_clock(run_case_async(case))
        assert first.fingerprints == second.fingerprints
        assert first.chaos_totals() == second.chaos_totals()
        ((mode, report),) = first.reports.items()
        again = second.reports[mode]
        assert report.decisions == again.decisions
        assert report.record.faulty == again.record.faulty
        assert report.tier == again.tier
        assert (
            first.runs[mode].result.stats.substitutions
            == second.runs[mode].result.stats.substitutions
        )


class TestFlakyProbabilisticMode:
    def test_same_rng_same_failure_pattern(self):
        def pattern(seed):
            async def scenario():
                flaky = FlakyTransport(
                    LocalBus(),
                    failure_probability=0.3,
                    rng=random.Random(seed),
                )
                await flaky.open(["S", "p1"])
                outcomes = []
                from tests.net.test_transports import data_frame
                for _ in range(20):
                    try:
                        await flaky.send(data_frame())
                        outcomes.append("ok")
                    except TransportError:
                        outcomes.append("fail")
                await flaky.close()
                return outcomes, flaky.injected_failures

            return asyncio.run(scenario())

        first = pattern(9)
        second = pattern(9)
        other = pattern(10)
        assert first == second
        assert first[1] > 0          # failures actually fired
        assert "ok" in first[0]      # and passed frames too
        assert first[0] != other[0]  # a different seed gives a different run
