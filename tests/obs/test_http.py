"""ObsServer routes, and live /metrics scrapes of a running load run."""

import asyncio
import json

import pytest

from repro.net.metrics import NetMetrics
from repro.obs.events import EventBus
from repro.obs.http import ObsServer, scrape
from repro.obs.prom import metrics_registry, parse_exposition


def run(coro):
    return asyncio.run(coro)


def make_server(bus=None, health=None):
    metrics = NetMetrics(transport="test")
    metrics.record_send(1, 100)
    return ObsServer(
        lambda: metrics_registry(metrics, bus=bus),
        health=health,
        bus=bus,
    )


class TestRoutes:
    def test_metrics_route_serves_valid_exposition(self):
        async def scenario():
            async with make_server() as server:
                assert server.port != 0
                return await scrape(server.host, server.port)

        status, body = run(scenario())
        assert status == 200
        samples = parse_exposition(body)  # raises on malformed lines
        assert samples["repro_frames_sent_total"] == 1
        assert samples['repro_build_info{transport="test"}'] == 1

    def test_healthz_merges_custom_payload(self):
        async def scenario():
            async with make_server(
                health=lambda: {"instances_done": 7}
            ) as server:
                return await scrape(server.host, server.port, "/healthz")

        status, body = run(scenario())
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["instances_done"] == 7

    def test_healthz_reports_degraded_but_stays_200(self):
        # A health callable may override the *status* without failing
        # the probe: orchestrators keep routing, dashboards go amber.
        async def scenario():
            async with make_server(
                health=lambda: {"status": "degraded", "watchdogged": 2}
            ) as server:
                return await scrape(server.host, server.port, "/healthz")

        status, body = run(scenario())
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "degraded"
        assert payload["watchdogged"] == 2

    def test_events_route_serves_ring_buffer(self):
        bus = EventBus()
        bus.publish("round_started", round=1)
        bus.publish("round_closed", round=1)

        async def scenario():
            async with make_server(bus=bus) as server:
                full = await scrape(server.host, server.port, "/events")
                tail = await scrape(
                    server.host, server.port, "/events?n=1"
                )
                return full, tail

        (status_full, body_full), (status_tail, body_tail) = run(scenario())
        assert status_full == status_tail == 200
        events = json.loads(body_full)["events"]
        assert [e["kind"] for e in events] == [
            "round_started", "round_closed"
        ]
        assert [e["kind"] for e in json.loads(body_tail)["events"]] == [
            "round_closed"
        ]

    def test_unknown_route_404s_and_is_counted(self):
        async def scenario():
            async with make_server() as server:
                status, _ = await scrape(
                    server.host, server.port, "/nope"
                )
                return status, dict(server.requests)

        status, requests = run(scenario())
        assert status == 404
        assert requests == {"/nope": 1}

    def test_bad_events_query_400s(self):
        async def scenario():
            async with make_server(bus=EventBus()) as server:
                return await scrape(
                    server.host, server.port, "/events?n=banana"
                )

        status, _ = run(scenario())
        assert status == 400


class TestLiveLoadScrape:
    """The load generator's own endpoint, scraped while instances run."""

    @pytest.mark.parametrize("transport", ["local", "tcp"])
    def test_load_run_serves_and_embeds_metrics(self, transport):
        from repro.serve.load import LoadConfig, run_load

        config = LoadConfig(
            instances=6,
            concurrency=3,
            round_timeout=2.0,
            transport=transport,
            metrics_port=0,
        )
        report = run(run_load(config))
        assert report.ok
        assert report.instances_done == 6
        sample = report.metrics_sample
        assert sample is not None
        assert sample["endpoint"].endswith("/metrics")
        assert sample["port"] > 0
        # The embedded exposition is itself well-formed and carries the
        # gateway + bus families only a live service can produce.
        samples = parse_exposition("\n".join(sample["exposition"]) + "\n")
        assert sample["samples"] == sum(
            1 for line in sample["exposition"]
            if line and not line.startswith("#")
        )
        assert "repro_gateway_inflight" in samples
        assert "repro_gateway_queue_depth" in samples
        assert any(
            key.startswith("repro_obs_events_total") for key in samples
        )
        assert any(
            key.startswith("repro_instances_total") for key in samples
        )

    def test_ephemeral_port_is_announced_once_bound(self):
        # Port 0 lets the OS pick: the chosen port must be announced so
        # scrapers (and CI) never race on a fixed number.
        from repro.serve.load import LoadConfig, run_load

        announced = []
        config = LoadConfig(
            instances=2, concurrency=2, round_timeout=2.0, metrics_port=0
        )
        report = run(run_load(config, announce=announced.append))
        metrics_lines = [l for l in announced if l.startswith("metrics: ")]
        assert len(metrics_lines) == 1
        port = report.metrics_sample["port"]
        assert port > 0
        assert metrics_lines[0] == (
            f"metrics: http://127.0.0.1:{port}/metrics"
        )

    def test_report_round_trips_sample_through_json(self, tmp_path):
        from repro.serve.load import LoadConfig, run_load

        config = LoadConfig(
            instances=4, concurrency=2, round_timeout=2.0, metrics_port=0
        )
        report = run(run_load(config))
        path = tmp_path / "BENCH_serve.json"
        report.save(str(path))
        payload = json.loads(path.read_text())
        assert payload["metrics_sample"]["samples"] == (
            report.metrics_sample["samples"]
        )

    def test_metrics_port_none_disables_observability(self):
        from repro.serve.load import LoadConfig, run_load

        report = run(
            run_load(
                LoadConfig(instances=2, concurrency=2, round_timeout=2.0)
            )
        )
        assert report.metrics_sample is None
