"""Tracing a run never changes it — and the trace itself is seed-stable.

Mirror of ``tests/obs/test_determinism.py`` for the span layer, pinning
the two halves of the tracing contract:

* **On vs off**: a same-seed chaos run produces identical decisions,
  :meth:`NetMetrics.counters` fingerprints and chaos counts with a
  tracer attached or absent — recording draws no RNG and awaits nothing.
* **Traced vs traced**: two traced same-seed runs produce identical span
  id sets — ids derive from seed + logical coordinates only, never the
  clock or the event loop's interleaving.

These runs are LocalBus only and run on the virtual clock: a ridden-out
deadline costs no wall time (``tests/serve/test_metrics.py`` proves the
counters are clock-blind).
"""

import random

import pytest

from repro.core.spec import DegradableSpec
from repro.explore.clock import run_on_virtual_clock
from repro.net import LocalBus, run_agreement_async
from repro.net.chaos import ChaosPolicy
from repro.trace import Tracer

from tests.conftest import node_names

SPEC = DegradableSpec(m=1, u=2, n_nodes=5)

NOISY = ChaosPolicy(
    drop_probability=0.12,
    duplicate_probability=0.10,
    reorder_probability=0.10,
    corrupt_probability=0.08,
    latency_probability=0.2,
    latency=(0.0002, 0.001),
)


def chaos_run(seed, tracer=None):
    return run_on_virtual_clock(
        run_agreement_async(
            SPEC,
            node_names(5),
            "S",
            "engage",
            transport=LocalBus(),
            round_timeout=0.5,
            chaos=NOISY,
            chaos_rng=random.Random(seed),
            supervise=True,
            tracer=tracer,
        )
    )


def service_run(tracer=None):
    from repro.serve import AgreementService

    async def scenario():
        async with AgreementService(
            SPEC,
            node_names(5),
            round_timeout=2.0,
            record_trace=False,
            tracer=tracer,
        ) as service:
            iids = [
                service.submit("S", "attack"),
                service.submit("p1", "retreat"),
                service.submit("p2", "hold"),
            ]
            outcomes = [await service.decision(iid) for iid in iids]
            return (
                [dict(o.decisions) for o in outcomes],
                service.aggregate_metrics.counters(),
            )

    return run_on_virtual_clock(scenario())


class TestTracedEqualsUntraced:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_chaos_run_fingerprints_identical_on_vs_off(self, seed):
        tracer = Tracer(seed=seed)
        traced = chaos_run(seed, tracer=tracer)
        untraced = chaos_run(seed)
        assert traced.result.decisions == untraced.result.decisions
        assert traced.metrics.counters() == untraced.metrics.counters()
        assert traced.chaos.counts() == untraced.chaos.counts()
        # ...and the traced run actually traced something.
        assert len(tracer) > 0

    def test_service_fingerprints_identical_on_vs_off(self):
        tracer = Tracer(seed=0)
        assert service_run(tracer=tracer) == service_run()
        assert len(tracer) > 0


class TestTracedEqualsTraced:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_span_ids_identical_across_same_seed_chaos_runs(self, seed):
        first, second = Tracer(seed=seed), Tracer(seed=seed)
        chaos_run(seed, tracer=first)
        chaos_run(seed, tracer=second)
        assert first.span_ids() == second.span_ids()
        assert len(first.span_ids()) == len(first.spans)  # ids unique
        assert first.trace_id == second.trace_id

    def test_span_ids_identical_across_same_seed_service_runs(self):
        first, second = Tracer(seed=5), Tracer(seed=5)
        service_run(tracer=first)
        service_run(tracer=second)
        assert first.span_ids() == second.span_ids()
        assert len(first.span_ids()) == len(first.spans)

    def test_different_seed_produces_different_span_ids(self):
        first, second = Tracer(seed=3), Tracer(seed=4)
        chaos_run(3, tracer=first)
        chaos_run(3, tracer=second)
        # Same run shape, different seed: no id may collide.
        assert not set(first.span_ids()) & set(second.span_ids())


class TestWireContextPropagation:
    def test_chaos_events_charge_the_senders_span(self):
        # The chaos layer annotates the *sender's* send span through the
        # frame's wire trace context — injections show up as events on
        # runner spans, not as orphans.
        seed = 11
        tracer = Tracer(seed=seed)
        outcome = chaos_run(seed, tracer=tracer)
        assert sum(outcome.chaos.counts().values()) > 0
        chaos_events = [
            ev
            for span in tracer.spans
            for ev in span.events
            if ev.name.startswith("chaos_")
        ]
        assert chaos_events
        assert tracer.orphan_events == 0
        assert all("charged" in ev.attrs for ev in chaos_events)

    def test_timestamps_follow_the_injected_clock(self):
        # The explorer seam: a tracer driven by a virtual clock stamps
        # virtual times (rendering only — ids already pinned above).
        ticks = iter([10.0, 12.5])
        tracer = Tracer(clock=lambda: next(ticks))
        span = tracer.end(tracer.begin("round", "runner", round_no=1))
        assert span.start == 10.0 and span.end == 12.5
