"""Prometheus exposition: primitives, strict parser, golden catalog."""

import math
import os
import re

import pytest

from repro.core.spec import DegradableSpec
from repro.explore.clock import run_on_virtual_clock
from repro.net.chaos import seeded_policy
from repro.net.metrics import NetMetrics
from repro.obs.events import EventBus
from repro.obs.prom import Exposition, metrics_registry, parse_exposition
from repro.serve.gateway import AgreementService
from repro.trace.spans import Tracer

from tests.obs import reference_prom as reference

HERE = os.path.dirname(__file__)
GOLDEN_PATH = os.path.join(HERE, "golden_metrics.prom")
CATALOG_DOC = os.path.join(HERE, "..", "..", "docs", "observability.md")

SPEC = DegradableSpec(m=1, u=2, n_nodes=5)
NODES = ("S", "p1", "p2", "p3", "p4")
VALUES = ("attack", "retreat", "hold", "regroup")


def build_golden_recorder():
    """A hand-built recorder exercising every exported family.

    Fully deterministic — no wall clock, no RNG — so the rendered
    exposition is byte-stable and can be pinned as a golden file.
    """
    bus = EventBus()
    metrics = NetMetrics(transport="golden", bus=bus)

    metrics.record_batch(1, 4, 400)
    metrics.record_send(1, 100)
    metrics.record_latency(1, 0.004)
    metrics.record_latency(1, 0.03)
    metrics.record_round_duration(1, 0.02)
    metrics.record_batch(2, 4, 380)
    metrics.record_round_duration(2, 0.06)
    metrics.record_timeout(2, "p1", "p2")
    metrics.record_drop(2)
    metrics.record_late(2)
    metrics.record_send_failure(2)
    metrics.substitutions = 2

    metrics.record_chaos_drop(1)
    metrics.record_chaos_dup(2)
    metrics.record_chaos_reorder(2)
    metrics.record_chaos_corruption(1)
    metrics.record_crash_event()
    metrics.record_partition_round()
    metrics.record_decode_error()

    metrics.record_reconnect("S", "p1")
    metrics.record_dedup("S", "p1")
    metrics.record_link_error("S", "p1")
    metrics.record_outage("S", "p1", 0.5)
    metrics.record_endpoint_restart()
    metrics.record_link_reset()

    metrics.record_stray_frame()
    metrics.record_instance("i0", NetMetrics())
    return metrics, bus


def serve_scrape(severity="", count=16, seed=9):
    """A finished (1,2,5) LocalBus service on the virtual clock.

    Carries an ``EventBus`` and a ``Tracer``; *severity* names a
    ``seeded_policy`` preset ("" runs clean).  Returns the service and
    the ``metrics_registry`` arguments a full scrape of it passes.
    """

    async def run():
        bus = EventBus()
        tracer = Tracer(seed=seed)
        chaos = chaos_rng = None
        if severity:
            chaos, chaos_rng = seeded_policy(severity, SPEC, NODES, seed)
        service = AgreementService(
            SPEC, NODES, chaos=chaos, chaos_rng=chaos_rng, max_inflight=4,
            round_timeout=0.25, events=bus, tracer=tracer,
        )
        async with service:
            iids = [
                service.submit(NODES[i % len(NODES)], VALUES[i % len(VALUES)])
                for i in range(count)
            ]
            for iid in iids:
                await service.decision(iid)
        return service, dict(service=service, bus=bus, tracer=tracer)

    return run_on_virtual_clock(run())


class TestPrimitives:
    """The writer's formatting, and the registry checks it dropped.

    The checks ``Counter``/``Gauge``/``Histogram``/``Registry`` made
    (non-negative counters, valid names, matching label sets, ascending
    buckets, unique families) guarded code constants, not input; their
    cases run against ``reference_prom``, the oracle's own contract.
    """

    def test_counter_rejects_negatives(self):
        counter = reference.Counter("c_total", "help")
        with pytest.raises(ValueError):
            counter.inc(-1)
        with pytest.raises(ValueError):
            counter.set(-1)

    def test_labeled_samples_sorted_and_escaped(self):
        out = Exposition()
        out.add("g", "gauge", "help", {"p2": 2, 'a"b\\c': 1}, ("node",))
        text = out.render()
        assert text.splitlines()[2] == 'g{node="a\\"b\\\\c"} 1'
        assert text.splitlines()[3] == 'g{node="p2"} 2'

    def test_label_set_must_match(self):
        gauge = reference.Gauge("g", "help", ("node",))
        with pytest.raises(ValueError, match="expects labels"):
            gauge.set(1, other="x")

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            reference.Counter("2bad", "help")
        with pytest.raises(ValueError, match="invalid label name"):
            reference.Gauge("g", "help", ("bad-label",))

    def test_histogram_buckets_cumulative_with_inf(self):
        out = Exposition()
        out.histogram("h_seconds", "help", (0.1, 1.0), [0.05, 0.5, 5.0])
        samples = parse_exposition(out.render())
        assert samples['h_seconds_bucket{le="0.1"}'] == 1
        assert samples['h_seconds_bucket{le="1"}'] == 2
        assert samples['h_seconds_bucket{le="+Inf"}'] == 3
        assert samples["h_seconds_count"] == 3
        assert samples["h_seconds_sum"] == pytest.approx(5.55)

    def test_histogram_buckets_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            reference.Histogram("h", "help", (1.0, 0.1))

    def test_registry_rejects_duplicates(self):
        registry = reference.Registry()
        registry.counter("x_total", "help")
        with pytest.raises(ValueError, match="duplicate"):
            registry.gauge("x_total", "help")

    def test_repeated_family_reaches_the_text(self):
        # Both copies are written, so the validator sees the mistake.
        out = Exposition()
        out.add("x_total", "counter", "help", 1)
        out.add("x_total", "gauge", "help", 2)
        text = out.render()
        assert text.count("# TYPE x_total ") == 2
        with pytest.raises(ValueError, match="duplicate sample"):
            parse_exposition(text)


class TestParser:
    def test_round_trips_a_registry(self):
        out = Exposition()
        out.add("a_total", "counter", "help", 3)
        out.add("b", "gauge", "help", {"v": 1.5}, ("k",))
        samples = parse_exposition(out.render())
        assert samples["a_total"] == 3
        assert samples['b{k="v"}'] == 1.5

    def test_special_values(self):
        samples = parse_exposition("x +Inf\ny -Inf\nz NaN\n")
        assert samples["x"] == math.inf
        assert samples["y"] == -math.inf
        assert math.isnan(samples["z"])

    @pytest.mark.parametrize("bad", [
        "# BOGUS comment here x",          # unknown comment keyword
        "# TYPE x flavor",                  # unknown metric type
        "metric",                           # no value
        "metric{unclosed 1",                # broken label block
        'metric{k="v" 1',                   # unterminated labels
        "metric{k=v} 1",                    # unquoted label value
        "metric abc",                       # unparseable value
        "9metric 1",                        # invalid name
    ])
    def test_malformed_lines_raise(self, bad):
        with pytest.raises(ValueError):
            parse_exposition(bad + "\n")

    @pytest.mark.parametrize("line", ['m{k="a}b"} 1', 'm{k="{"} 1'])
    def test_braces_inside_label_values(self, line):
        # Legal in text format 0.0.4, and _escape_label leaves them be.
        assert parse_exposition(line + "\n") == {line[:-2]: 1}

    def test_duplicate_samples_raise(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_exposition("x 1\nx 2\n")


class TestCatalogGolden:
    def test_exposition_matches_golden_file(self):
        metrics, bus = build_golden_recorder()
        rendered = metrics_registry(metrics, bus=bus).render()
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            golden = handle.read()
        assert rendered == golden, (
            "exposition catalog drifted; if the change is intentional, "
            "regenerate tests/obs/golden_metrics.prom with "
            "tests/obs/test_prom.py::build_golden_recorder"
        )

    def test_golden_exposition_is_well_formed(self):
        metrics, bus = build_golden_recorder()
        samples = parse_exposition(
            metrics_registry(metrics, bus=bus).render()
        )
        # Spot-check the catalog against the recorder's own totals.
        assert samples["repro_messages_sent_total"] == 9
        assert samples["repro_frames_sent_total"] == 3
        assert samples["repro_frames_batched_total"] == 2
        assert samples["repro_substitutions_total"] == 2
        assert samples['repro_chaos_events_total{kind="drop"}'] == 1
        assert samples["repro_link_reconnects_total"] == 1
        assert samples["repro_link_errors_total"] == 1
        assert samples["repro_link_outage_seconds_total"] == 0.5
        assert samples["repro_instances_folded_total"] == 1
        assert samples["repro_delivery_latency_seconds_count"] == 2
        assert samples["repro_round_duration_seconds_count"] == 2

    def test_counters_agree_with_fingerprint(self):
        # /metrics and the determinism fingerprint must tell one story.
        metrics, bus = build_golden_recorder()
        samples = parse_exposition(metrics_registry(metrics).render())
        counters = metrics.counters()

        def rounds_total(suffix: str) -> int:
            return sum(
                value for key, value in counters.items()
                if key.startswith("r") and key.endswith("." + suffix)
            )

        assert samples["repro_messages_sent_total"] == rounds_total(
            "messages_sent"
        )
        assert samples["repro_frames_sent_total"] == rounds_total(
            "frames_sent"
        )
        assert samples["repro_timeouts_total"] == rounds_total("timeouts")
        for prom_name, counter_key in (
            ("repro_substitutions_total", "substitutions"),
            ("repro_link_reconnects_total", "link.S.p1.reconnects"),
            ("repro_endpoint_restarts_total", "endpoint_restarts"),
            ("repro_stray_frames_total", "stray_frames"),
        ):
            assert samples[prom_name] == counters[counter_key], prom_name


class TestCatalogDoc:
    def test_docs_catalog_matches_a_full_scrape(self):
        # docs/observability.md's tables name exactly the families one
        # scrape with a service, a bus and a tracer writes.
        service, scrape = serve_scrape(count=2)
        text = metrics_registry(service.aggregate_metrics, **scrape).render()
        written = set(re.findall(r"^# TYPE (\S+) ", text, re.M))
        with open(CATALOG_DOC, encoding="utf-8") as handle:
            documented = set(
                re.findall(r"^\| `(repro_[a-z_]+)` \|", handle.read(), re.M)
            )
        assert documented == written
