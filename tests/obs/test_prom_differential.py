"""Differential test: the exposition writer against the registry it replaced.

``tests/obs/reference_prom.py`` holds ``repro.obs.prom`` as it was — a
``Counter``/``Gauge``/``Histogram`` store inside a ``Registry``, filled
from the recorder per scrape.  The live ``metrics_registry(...).render()``
writes the same catalog straight from the recorder and must agree with it
byte for byte on every scrape, apart from the one family the live catalog
adds, ``repro_link_errors_total``.  ``repro stats --prom`` of a service's
record must agree with the same snapshot written on the reference
registry.
"""

import re

import pytest

from repro.net.metrics import NetMetrics
from repro.obs.prom import metrics_registry
from repro.obs.snapshot import render_snapshot
from repro.serve.gateway import record_service_run
from repro.verify.record import RunRecord

from tests.obs import reference_prom as reference
from tests.obs.test_prom import build_golden_recorder, serve_scrape

PRESETS = ("", "light", "heavy", "crash", "partition")

_LINK_ERRORS = re.compile(
    r"^(?:# (?:HELP|TYPE) )?repro_link_errors_total[ {].*\n", re.M
)


def without_link_errors(text):
    """*text* minus the ``repro_link_errors_total`` block (3 lines)."""
    stripped, removed = _LINK_ERRORS.subn("", text)
    assert removed == 3
    return stripped


def reference_snapshot(path):
    """``render_snapshot(path, prom=True)`` as written on the registry."""
    record = RunRecord.load(path)
    kinds = {}
    rounds = set()
    for event in record.trace.events:
        kind = getattr(event.kind, "value", str(event.kind))
        kinds[kind] = kinds.get(kind, 0) + 1
        rounds.add(event.round_no)
    registry = reference.Registry()
    registry.gauge(
        "repro_trace_info", "Recorded run identity.", ("mode", "transport"),
    ).set(
        1,
        mode=str(record.mode),
        transport=str(record.transport or "unknown"),
    )
    registry.gauge(
        "repro_trace_rounds_total", "Rounds present in the trace."
    ).set(len(rounds))
    registry.gauge(
        "repro_trace_nodes_total", "Nodes in the recorded run."
    ).set(len(record.nodes))
    counter = registry.counter(
        "repro_trace_events_total", "Recorded trace events by kind.", ("kind",)
    )
    for kind in sorted(kinds):
        counter.set(kinds[kind], kind=kind)
    return registry.render()


@pytest.fixture(scope="module", params=PRESETS, ids=lambda s: s or "clean")
def served(request):
    return serve_scrape(request.param)


class TestRecorderScrapes:
    @pytest.mark.parametrize("with_bus", [True, False])
    def test_golden_recorder(self, with_bus):
        metrics, bus = build_golden_recorder()
        bus = bus if with_bus else None
        assert without_link_errors(
            metrics_registry(metrics, bus=bus).render()
        ) == reference.metrics_registry(metrics, bus=bus).render()

    def test_empty_recorder(self):
        assert without_link_errors(
            metrics_registry(NetMetrics()).render()
        ) == reference.metrics_registry(NetMetrics()).render()

    def test_histogram_sum_adds_in_observation_order(self):
        # 1.0 + 1e-16 + 1e-16 is 1.0; any other order or a compensated
        # sum reads 1.0000000000000002.
        metrics = NetMetrics()
        for latency in (1.0, 1e-16, 1e-16):
            metrics.record_latency(1, latency)
        text = metrics_registry(metrics).render()
        assert "repro_delivery_latency_seconds_sum 1\n" in text
        assert without_link_errors(text) == (
            reference.metrics_registry(metrics).render()
        )


class TestServiceScrapes:
    def test_full_scrape(self, served):
        service, scrape = served
        aggregate = service.aggregate_metrics
        assert without_link_errors(
            metrics_registry(aggregate, **scrape).render()
        ) == reference.metrics_registry(aggregate, **scrape).render()

    def test_stats_prom_of_the_record(self, served, tmp_path):
        service, _ = served
        path = str(tmp_path / "serve.jsonl")
        record_service_run(service).save(path)
        assert render_snapshot(path, prom=True) == reference_snapshot(path)
