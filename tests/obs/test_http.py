"""ObsServer routes, and live /metrics scrapes of a running service."""

import asyncio
import json

import pytest

from repro.core.scenario import Instance
from repro.net.metrics import NetMetrics
from repro.net.tcp import TcpTransport
from repro.net.transport import LocalBus
from repro.obs.events import EventBus
from repro.obs.http import ObsServer, scrape
from repro.obs.prom import metrics_registry, parse_exposition
from repro.serve import plan, serve_plan


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


def port_of(announce_line):
    """The port in a ``metrics: http://host:port/metrics`` line."""
    return int(announce_line.rsplit(":", 1)[1].split("/")[0])


def _held_first_send(transport):
    """The plan's *transport* whose first ``send`` waits for its
    ``release`` event: the instance making it stays in flight until a
    scraper has seen it."""

    class HeldFirstSend({"local": LocalBus, "tcp": TcpTransport}[transport]):
        held = False

        def __init__(self):
            super().__init__()
            self.release = asyncio.Event()

        async def send(self, frame):
            if not self.held:
                self.held = True
                await self.release.wait()
            return await super().send(frame)

    return HeldFirstSend()


class TestLiveServeScrape:
    """``serve_plan``'s endpoint, scraped while instances are in flight."""

    @staticmethod
    def serve_and_scrape(transport, monkeypatch):
        """Serve a plan past the admission bound, holding its first send,
        and scrape ``/metrics`` from the announce callback until an
        instance shows in flight — then release the send; return the
        announce lines and the scrape."""
        announced, scraped, tasks, wires = [], [], [], []

        def held_transport(name):
            wires.append(_held_first_send(name))
            return wires[-1]

        monkeypatch.setattr(plan, "make_transport", held_transport)

        async def scrape_live(port):
            try:
                for _ in range(200):
                    status, body = await scrape("127.0.0.1", port)
                    assert status == 200
                    if parse_exposition(body)["repro_gateway_inflight"] >= 1:
                        scraped.append(body)
                        return
                    await asyncio.sleep(0.001)
            finally:
                wires[0].release.set()

        def announce(line):
            announced.append(line)
            tasks.append(asyncio.ensure_future(scrape_live(port_of(line))))

        async def scenario():
            _, outcomes = await serve_plan(
                Instance(1, 2, 5), 12, 7, transport=transport,
                metrics_port=0, announce=announce,
                max_inflight=2, queue_limit=2,
            )
            await asyncio.gather(*tasks)
            return outcomes

        outcomes = run(scenario())
        assert len(outcomes) == 12 and all(o.ok for o in outcomes)
        assert wires[0].held
        return announced, scraped

    @pytest.mark.parametrize("transport", ["local", "tcp"])
    def test_serve_run_answers_a_live_scrape(self, transport, monkeypatch):
        _, scraped = self.serve_and_scrape(transport, monkeypatch)
        assert len(scraped) == 1
        # The live exposition is well-formed and carries the gateway +
        # bus families only a running service can produce.
        samples = parse_exposition(scraped[0])
        assert "repro_gateway_inflight" in samples
        assert "repro_gateway_queue_depth" in samples
        assert any(
            key.startswith("repro_obs_events_total") for key in samples
        )
        assert any(
            key.startswith("repro_instances_total") for key in samples
        )

    def test_ephemeral_port_is_announced_once_bound(self, monkeypatch):
        # Port 0 lets the OS pick: the chosen port must be announced so
        # scrapers (and CI) never race on a fixed number.
        announced, scraped = self.serve_and_scrape("local", monkeypatch)
        assert len(announced) == 1 and len(scraped) == 1
        port = port_of(announced[0])
        assert port > 0
        assert announced[0] == f"metrics: http://127.0.0.1:{port}/metrics"

    def test_metrics_port_none_disables_observability(self, monkeypatch):
        async def no_server(self):
            raise AssertionError("an ObsServer was started")

        monkeypatch.setattr(ObsServer, "start", no_server)
        announced = []
        _, outcomes = run(serve_plan(
            Instance(1, 2, 5), 2, 0, announce=announced.append
        ))
        assert len(outcomes) == 2
        assert announced == []
