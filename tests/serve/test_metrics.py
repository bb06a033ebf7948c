"""Aggregate NetMetrics: per-instance counters and seeded-run fingerprints."""

import asyncio
import random

from repro.core.spec import DegradableSpec
from repro.explore.clock import run_on_virtual_clock
from repro.net.chaos import ChaosPolicy, seeded_policy
from repro.net.metrics import NetMetrics
from repro.obs import EventBus, metrics_registry, parse_exposition
from repro.serve import AgreementService

SPEC = DegradableSpec(m=1, u=2, n_nodes=5)
NODES = ("S", "p1", "p2", "p3", "p4")
VALUES = ("attack", "retreat", "hold", "regroup")


def plan(seed, count):
    rng = random.Random(seed)
    return [
        (NODES[i % len(NODES)], rng.choice(VALUES)) for i in range(count)
    ]


async def run_service(workload, chaos=None, chaos_seed=0, max_inflight=8):
    service = AgreementService(
        SPEC,
        NODES,
        chaos=chaos,
        chaos_rng=random.Random(chaos_seed) if chaos else None,
        max_inflight=max_inflight,
        round_timeout=0.5,
        record_trace=False,
    )
    async with service:
        iids = [
            service.submit(sender, value, instance_id=f"i{i:04d}")
            for i, (sender, value) in enumerate(workload)
        ]
        for iid in iids:
            await service.decision(iid)
        return service.aggregate_metrics.counters()


class TestRecordInstance:
    def test_fold_is_completion_order_insensitive(self):
        a = NetMetrics(transport="local")
        b = NetMetrics(transport="local")
        inner = NetMetrics()
        for _ in range(4):
            inner.record_mark(1, 10)
        for _ in range(12):
            inner.record_mark(2, 10)
        a.record_instance("x", inner)
        a.record_instance("y", inner)
        b.record_instance("y", inner)
        b.record_instance("x", inner)
        assert a.counters() == b.counters()
        assert a.counters()["inst.y.r2.frames_sent"] == 12

    def test_instance_keys_are_namespaced(self):
        metrics = NetMetrics(transport="local")
        inner = NetMetrics()
        for _ in range(4):
            inner.record_mark(1, 10)
        metrics.record_instance("i0000", inner)
        assert metrics.counters()["inst.i0000.r1.frames_sent"] == 4

    def test_stray_frames_surface_in_counters(self):
        metrics = NetMetrics(transport="local")
        metrics.record_stray_frame()
        metrics.record_stray_frame()
        assert metrics.counters()["stray_frames"] == 2


class TestSeededFingerprints:
    """Two identical seeded service runs must produce identical counters.

    ``counters()`` deliberately excludes wall-clock quantities, so the
    fingerprint is a function of the workload (and chaos seed) alone —
    the regression this guards is any counter silently picking up timing
    or completion-order dependence.  The cases run on the virtual clock:
    a round that waits out its deadline costs no wall time, and
    :meth:`test_real_and_virtual_clock_count_the_same` is the proof that
    nothing counted depends on which clock told the time.
    """

    def test_clean_concurrent_runs_fingerprint_identically(self):
        workload = plan(seed=42, count=12)
        first = run_on_virtual_clock(run_service(workload))
        second = run_on_virtual_clock(run_service(workload))
        assert first == second
        assert any(key.startswith("inst.") for key in first)

    def test_seeded_chaos_runs_fingerprint_identically(self):
        # max_inflight=1 serializes the instances, so the shared chaos
        # rng sees the same frame sequence both times; drop + dup with
        # zero added latency keeps the schedule deterministic.
        workload = plan(seed=7, count=6)
        policy = ChaosPolicy(
            drop_probability=0.1, duplicate_probability=0.2, seed=17
        )
        first = run_on_virtual_clock(
            run_service(workload, chaos=policy, chaos_seed=17, max_inflight=1)
        )
        second = run_on_virtual_clock(
            run_service(workload, chaos=policy, chaos_seed=17, max_inflight=1)
        )
        assert first == second

    def test_different_chaos_seed_changes_fingerprint(self):
        workload = plan(seed=7, count=6)
        policy = ChaosPolicy(
            drop_probability=0.25, duplicate_probability=0.25, seed=17
        )
        first = run_on_virtual_clock(
            run_service(workload, chaos=policy, chaos_seed=17, max_inflight=1)
        )
        other = run_on_virtual_clock(
            run_service(workload, chaos=policy, chaos_seed=99, max_inflight=1)
        )
        assert first != other

    def test_real_and_virtual_clock_count_the_same(self):
        """The loop clock is render-only: same seed, same ``counters()``,
        whether deadlines are slept through or skipped over."""
        workload = plan(seed=7, count=6)
        policy = ChaosPolicy(
            drop_probability=0.1, duplicate_probability=0.2, seed=17
        )
        real = asyncio.run(
            run_service(workload, chaos=policy, chaos_seed=17, max_inflight=1)
        )
        virtual = run_on_virtual_clock(
            run_service(workload, chaos=policy, chaos_seed=17, max_inflight=1)
        )
        assert real == virtual
        assert any(key.endswith(".timeouts") and real[key] for key in real)


class TestServiceScrape:
    """A service's ``/metrics`` totals are the sum over decided instances.

    Regression: the aggregate recorder kept a flattened copy of each
    instance's counters while every ``total_*`` summed its own (empty)
    rounds, so a live scrape read ``repro_frames_sent_total 0`` beside
    ``repro_instances_folded_total 8``.
    """

    @staticmethod
    async def scrape(chaos_severity="", seed=5, count=8):
        bus = EventBus()
        chaos = chaos_rng = None
        if chaos_severity:
            chaos, chaos_rng = seeded_policy(
                chaos_severity, SPEC, NODES, seed
            )
        service = AgreementService(
            SPEC,
            NODES,
            chaos=chaos,
            chaos_rng=chaos_rng,
            max_inflight=1 if chaos else 8,
            round_timeout=0.5,
            events=bus,
        )
        async with service:
            iids = [
                service.submit(sender, value)
                for sender, value in plan(seed, count)
            ]
            for iid in iids:
                await service.decision(iid)
        samples = parse_exposition(
            metrics_registry(
                service.aggregate_metrics, service=service, bus=bus
            ).render()
        )
        return service, bus, samples

    def test_clean_totals_cover_every_instance(self):
        service, bus, samples = asyncio.run(self.scrape())
        assert samples["repro_instances_folded_total"] == 8
        # (1,2,5): 4 + 12 single-message batch frames per instance.
        assert samples["repro_frames_sent_total"] == 128
        assert samples["repro_messages_sent_total"] == 128
        assert samples["repro_rounds_total"] == 24
        assert bus.counts["round_closed"] == 24
        assert samples["repro_bytes_sent_total"] > 0
        assert samples["repro_substitutions_total"] == 0
        assert samples["repro_delivery_latency_seconds_count"] == 128
        assert samples["repro_round_duration_seconds_count"] > 0

    def test_totals_are_derived_from_the_instances_own_recorders(self):
        service, _, _ = asyncio.run(self.scrape())
        aggregate = service.aggregate_metrics
        outcomes = list(service.outcomes.values())
        assert aggregate.total_frames == sum(
            o.metrics.total_frames for o in outcomes
        )
        assert aggregate.total_bytes == sum(
            o.metrics.total_bytes for o in outcomes
        )
        # Nothing is copied: the fold holds the recorder the outcome
        # keeps, and the fingerprint keys are that recorder's counters().
        counters = aggregate.counters()
        for outcome in outcomes:
            iid = str(outcome.instance_id)
            assert aggregate.window[iid].metrics is outcome.metrics
            for key, value in outcome.metrics.counters().items():
                assert counters[f"inst.{iid}.{key}"] == value
        assert "multiplexing: 8 instance(s) folded in" in aggregate.render()
        assert "frames=128" in aggregate.render()

    def test_substitutions_under_light_chaos_sum_over_outcomes(self):
        service, bus, samples = run_on_virtual_clock(
            self.scrape("light", seed=5)
        )
        outcomes = list(service.outcomes.values())
        expected = sum(o.metrics.substitutions for o in outcomes)
        assert expected > 0  # this seed does lose frames
        assert samples["repro_substitutions_total"] == expected
        # The shared chaos layer's own round entries are not rounds run.
        assert samples["repro_rounds_total"] == bus.counts["round_closed"]
        assert samples["repro_frames_sent_total"] == sum(
            o.metrics.total_frames for o in outcomes
        )
