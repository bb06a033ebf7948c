"""The bounded service aggregate against the one that kept every instance.

``reference_aggregate.py`` is the aggregate before the service kept a
window: the folding ``NetMetrics``, the Prometheus catalog and the
gateway's outcome walks, verbatim.  The client here holds every outcome it
was handed, in decision order, and rebuilds that aggregate from them.

* A run of at most :data:`~repro.serve.gateway.OUTCOME_WINDOW` instances is
  byte-identical to it: ``counters()``, every ``total_*``,
  ``latency_percentiles()``, ``render()``, the ``/metrics`` exposition,
  ``/healthz``, ``service_stopped`` and ``record_service_run(...)
  .fingerprint()``.
* A longer run agrees on every total, the tier and contract counts, the
  histogram counts and buckets, and on the fingerprint's sums: each
  ``folded.<key>`` is the sum of the reference's ``inst.<id>.<key>``.
"""

from __future__ import annotations

import pytest

from repro.core.scenario import build_behavior
from repro.core.spec import DegradableSpec
from repro.explore import run_on_virtual_clock
from repro.net.chaos import seeded_policy
from repro.obs.events import EventBus
from repro.obs.http import ObsServer
from repro.obs.prom import metrics_registry, parse_exposition
from repro.serve import AgreementService, record_service_run
from repro.serve.gateway import HELD_OUTCOMES, OUTCOME_WINDOW

from tests.serve import reference_aggregate as reference

SPEC = DegradableSpec(m=1, u=2, n_nodes=5)
NODES = ("S", "p1", "p2", "p3", "p4")
VALUES = ("attack", "retreat", "hold")

TOTALS = (
    "total_rounds", "total_substitutions", "total_messages", "total_bytes",
    "total_frames", "total_frames_batched", "total_timeouts",
    "total_send_failures", "total_dropped", "total_late_frames",
    "total_chaos_drops", "total_chaos_dups", "total_chaos_reorders",
    "total_chaos_corruptions", "total_reconnects", "total_deduped",
    "total_outages", "total_chaos_events",
)


def behaviors_for(index):
    """Every fifth instance has one liar; every seventh two silent nodes
    (the degraded tier: ``m < f = u``)."""
    if index % 7 == 3:
        return {
            "p2": build_behavior("silent", NODES),
            "p3": build_behavior("silent", NODES),
        }
    if index % 5 == 1:
        return {"p4": build_behavior("lie", NODES)}
    return None


def serve(count, severity="", record_trace=True, seed=5):
    """Serve *count* instances on the virtual clock; return the service,
    its bus and every outcome in decision order."""
    bus = EventBus(capacity=16)
    order = []
    bus.subscribe(
        lambda event: order.append(event.data["instance"])
        if event.kind == "instance_decided" else None
    )
    chaos = chaos_rng = None
    if severity:
        chaos, chaos_rng = seeded_policy(severity, SPEC, NODES, seed)

    async def scenario():
        service = AgreementService(
            SPEC, NODES, chaos=chaos, chaos_rng=chaos_rng, max_inflight=8,
            round_timeout=0.5, record_trace=record_trace, events=bus,
        )
        outcomes = {}
        async with service:
            for start in range(0, count, 40):
                ids = [
                    service.submit(
                        NODES[i % 5], VALUES[i % 3], behaviors=behaviors_for(i)
                    )
                    for i in range(start, min(count, start + 40))
                ]
                for iid in ids:
                    outcomes[iid] = await service.decision(iid)
        return service, [outcomes[iid] for iid in order]

    service, decided = run_on_virtual_clock(scenario())
    return service, bus, decided


def stopped_instances(bus):
    (event,) = [e for e in bus.recent() if e.kind == "service_stopped"]
    return event.data["instances"]


@pytest.fixture(
    scope="module",
    params=[
        ("clean-traced", 64, "", True),
        ("light-chaos", 48, "light", True),
        ("window-full", OUTCOME_WINDOW, "", False),
    ],
    ids=lambda p: p[0],
)
def inside_window(request):
    _name, count, severity, record_trace = request.param
    return serve(count, severity, record_trace)


class TestInsideTheWindow:
    def test_the_run_is_inside_the_window(self, inside_window):
        service, _bus, decided = inside_window
        assert len(decided) <= OUTCOME_WINDOW
        assert service.aggregate_metrics.folded is None
        assert service.evicted == 0

    def test_recorder_views_are_byte_identical(self, inside_window):
        service, _bus, decided = inside_window
        live = service.aggregate_metrics
        ref = reference.aggregate_of(service, decided)
        assert list(live.counters().items()) == list(ref.counters().items())
        for name in TOTALS:
            assert getattr(live, name) == getattr(ref, name), name
        assert live.latency_percentiles() == ref.latency_percentiles()
        assert live.round_durations() == ref.round_durations()
        assert live.render() == ref.render()
        assert repr(live) == repr(ref)

    def test_the_exposition_is_byte_identical(self, inside_window):
        service, bus, decided = inside_window
        live = metrics_registry(
            service.aggregate_metrics, service=service, bus=bus
        ).render()
        view = reference.ServiceView(service, decided)
        ref = reference.metrics_registry(
            reference.aggregate_of(service, decided), service=view, bus=bus
        ).render()
        assert live == ref

    def test_healthz_service_stopped_and_the_record_are_identical(
        self, inside_window
    ):
        service, bus, decided = inside_window
        view = reference.ServiceView(service, decided)
        health = ObsServer.for_service(service, 0).health()
        assert health["instances_done"] == reference.healthz_instances_done(view)
        assert stopped_instances(bus) == reference.service_stopped_instances(view)
        live = record_service_run(service)
        ref = reference.record_service_run(view)
        assert live.header() == ref.header()
        assert live.fingerprint() == ref.fingerprint()


@pytest.fixture(scope="module")
def past_the_window():
    return serve(OUTCOME_WINDOW * 3, record_trace=False)


class TestPastTheWindow:
    def test_the_window_holds_the_latest_and_the_latest_disagreements(
        self, past_the_window
    ):
        """The last ``OUTCOME_WINDOW`` decided instances, and before them
        the latest ``HELD_OUTCOMES`` of the older ones outside D.1/D.2."""
        service, _bus, decided = past_the_window
        assert service.evicted > 0
        assert service.decided == len(decided)
        window = [o.instance_id for o in decided[-OUTCOME_WINDOW:]]
        older = decided[:-OUTCOME_WINDOW]
        held = [o.instance_id for o in older if not o.agreed][-HELD_OUTCOMES:]
        assert len(held) == HELD_OUTCOMES
        assert list(service.outcomes) == held + window
        assert service.evicted == len(decided) - len(held) - len(window)

    def test_totals_are_the_reference_totals(self, past_the_window):
        service, _bus, decided = past_the_window
        live = service.aggregate_metrics
        ref = reference.aggregate_of(service, decided)
        assert live.instances_folded == len(ref.instances) == len(decided)
        for name in TOTALS:
            assert getattr(live, name) == getattr(ref, name), name

    def test_tier_and_contract_counts_are_the_reference_counts(
        self, past_the_window
    ):
        service, bus, decided = past_the_window
        view = reference.ServiceView(service, decided)
        live = parse_exposition(metrics_registry(
            service.aggregate_metrics, service=service, bus=bus
        ).render())
        ref = parse_exposition(reference.metrics_registry(
            reference.aggregate_of(service, decided), service=view, bus=bus
        ).render())
        assert set(live) == set(ref)
        differ = [key for key in live if live[key] != ref[key]]
        # Only a histogram's float sum may differ in its last bits: its
        # folded part was added up before the window's.
        assert all(key.split("{")[0].endswith("_sum") for key in differ)
        for key in differ:
            assert live[key] == pytest.approx(ref[key], rel=1e-9)
        assert live['repro_tier_verdicts_total{tier="degraded"}'] > 0
        tally = service.tally()
        assert tally.decided == len(decided)
        assert tally.satisfied == sum(o.ok for o in decided)
        assert ObsServer.for_service(service, 0).health()[
            "instances_done"
        ] == len(decided)
        assert stopped_instances(bus) == len(decided)

    def test_the_fingerprint_sums_the_reference_fingerprints(
        self, past_the_window
    ):
        service, _bus, decided = past_the_window
        live = service.aggregate_metrics.counters()
        ref = reference.aggregate_of(service, decided).counters()
        sums = {}
        for key, value in ref.items():
            if key.startswith("inst."):
                _inst, _iid, rest = key.split(".", 2)
                sums[rest] = sums.get(rest, 0) + value
        folded = {
            key[len("folded."):]: value
            for key, value in live.items()
            if key.startswith("folded.")
        }
        assert folded.pop("instances") == len(decided)
        assert folded == sums
        assert {k: v for k, v in live.items() if not k.startswith("folded.")} \
            == {k: v for k, v in ref.items() if not k.startswith("inst.")}

    def test_the_record_covers_the_held_instances_and_counts_the_evicted(
        self, past_the_window
    ):
        service, _bus, _decided = past_the_window
        record = record_service_run(service)
        listed = [entry["id"] for entry in record.meta["instances"]]
        assert listed == list(service.outcomes)
        assert record.meta["evicted"] == service.evicted
