"""EventBus: publication, ring buffer, fail-open subscribers, wiring."""

import asyncio

import pytest

from repro.net.metrics import NetMetrics
from repro.obs.events import EventBus


class TestPublish:
    def test_events_are_sequenced_and_counted(self):
        bus = EventBus()
        first = bus.publish("round_started", round=1)
        second = bus.publish("round_closed", round=1, messages=3)
        assert (first.seq, second.seq) == (1, 2)
        assert first.kind == "round_started"
        assert second.data == {"round": 1, "messages": 3}
        assert bus.counts == {"round_started": 1, "round_closed": 1}
        assert bus.total_events == 2

    def test_ring_buffer_is_bounded_but_counts_are_not(self):
        bus = EventBus(capacity=4)
        for i in range(10):
            bus.publish("tick", i=i)
        assert len(bus) == 4
        assert [e.data["i"] for e in bus.recent()] == [6, 7, 8, 9]
        assert [e.data["i"] for e in bus.recent(2)] == [8, 9]
        assert bus.recent(0) == []
        assert bus.total_events == 10
        assert bus.counts["tick"] == 10

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            EventBus(capacity=0)

    def test_ring_overflow_is_counted_as_dropped(self):
        bus = EventBus(capacity=4)
        for i in range(4):
            bus.publish("tick", i=i)
        assert bus.events_dropped == 0  # exactly full, nothing evicted yet
        for i in range(4, 10):
            bus.publish("tick", i=i)
        # Every publish past capacity evicted (dropped) the oldest event.
        assert bus.events_dropped == 6
        assert len(bus) == 4

    def test_dropped_counter_reaches_the_exposition(self):
        from repro.obs.prom import metrics_registry, parse_exposition

        bus = EventBus(capacity=2)
        for i in range(5):
            bus.publish("tick", i=i)
        samples = parse_exposition(
            metrics_registry(NetMetrics(), bus=bus).render()
        )
        assert samples["repro_obs_events_dropped_total"] == 3

    def test_to_dict_is_json_shaped(self):
        event = EventBus().publish("link_state", source="S", state="dead")
        payload = event.to_dict()
        assert payload["seq"] == 1
        assert payload["kind"] == "link_state"
        assert payload["data"] == {"source": "S", "state": "dead"}
        assert isinstance(payload["ts"], float)


class TestSubscribers:
    def test_subscribers_see_events_in_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append((e.seq, e.kind)))
        bus.publish("a")
        bus.publish("b")
        assert seen == [(1, "a"), (2, "b")]

    def test_raising_subscriber_is_counted_not_propagated(self):
        bus = EventBus()
        seen = []

        def broken(event):
            raise RuntimeError("subscriber bug")

        bus.subscribe(broken)
        bus.subscribe(lambda e: seen.append(e.kind))
        event = bus.publish("round_started")  # must not raise
        assert event.kind == "round_started"
        assert bus.subscriber_errors == 1
        # The event still reached the healthy subscriber and the ring.
        assert seen == ["round_started"]
        assert len(bus) == 1

    def test_slow_subscriber_never_blocks_publication(self):
        # publish() is a plain synchronous call with no awaits: even a
        # dawdling subscriber cannot make publication yield to the event
        # loop, so concurrently-scheduled tasks never interleave with it
        # and the protocol path that published is never reordered.
        import time

        bus = EventBus()
        order = []

        def slow(event):
            time.sleep(0.002)
            order.append(("slow", event.seq))

        bus.subscribe(slow)
        bus.subscribe(lambda e: order.append(("fast", e.seq)))

        async def scenario():
            ticker_ran = []

            async def ticker():
                ticker_ran.append(len(order))

            task = asyncio.ensure_future(ticker())
            bus.publish("tick", i=1)
            bus.publish("tick", i=2)
            published_before_yield = list(order)
            await task
            return published_before_yield, ticker_ran

        published, ticker_ran = asyncio.run(scenario())
        # Both events reached both subscribers before the loop ever got
        # control back — the scheduled ticker saw the finished list.
        assert published == [
            ("slow", 1), ("fast", 1), ("slow", 2), ("fast", 2),
        ]
        assert ticker_ran == [4]

    def test_unsubscribe_is_idempotent(self):
        bus = EventBus()
        seen = []
        sub = bus.subscribe(lambda e: seen.append(e.kind))
        bus.unsubscribe(sub)
        bus.unsubscribe(sub)
        bus.publish("a")
        assert seen == []


class TestRecorderWiring:
    """NetMetrics.publish funnels recorder hooks onto an attached bus."""

    def test_publish_without_bus_is_a_noop(self):
        metrics = NetMetrics()
        metrics.publish("anything", x=1)  # must not raise

    def test_recorder_hooks_reach_the_bus(self):
        metrics = NetMetrics(transport="test")
        bus = EventBus()
        metrics.attach_bus(bus)
        metrics.record_stray_frame()
        metrics.record_reconnect("S", "p1")
        metrics.record_endpoint_restart()
        kinds = [e.kind for e in bus.recent()]
        assert kinds == [
            "stray_frame",
            "link_reconnect",
            "endpoint_restart",
        ]

    def test_runner_publishes_round_lifecycle(self):
        from repro.net.runner import run_agreement_async

        bus = EventBus()
        nodes = ["S", "p1", "p2", "p3", "p4"]
        from repro.core.spec import DegradableSpec

        asyncio.run(
            run_agreement_async(
                DegradableSpec(m=1, u=2, n_nodes=5),
                nodes,
                "S",
                "attack",
                round_timeout=2.0,
                events=bus,
            )
        )
        starts = [e for e in bus.recent() if e.kind == "round_started"]
        closes = [e for e in bus.recent() if e.kind == "round_closed"]
        assert len(starts) == len(closes) > 0
        assert [e.data["round"] for e in starts] == list(
            range(1, len(starts) + 1)
        )
        # Single-instance runs carry no mux identity.
        assert all(e.data["instance"] is None for e in starts)

    def test_service_publishes_admission_and_verdicts(self):
        from repro.core.spec import DegradableSpec
        from repro.serve import AgreementService

        bus = EventBus()

        async def scenario():
            async with AgreementService(
                DegradableSpec(m=1, u=2, n_nodes=5),
                ("S", "p1", "p2", "p3", "p4"),
                round_timeout=2.0,
                events=bus,
            ) as service:
                await service.submit_and_wait("S", "attack")

        asyncio.run(scenario())
        counts = bus.counts
        assert counts["service_started"] == 1
        assert counts["service_stopped"] == 1
        assert counts["instance_admitted"] == 1
        assert counts["instance_decided"] == 1
        assert counts["round_started"] >= 1
        decided = [
            e for e in bus.recent() if e.kind == "instance_decided"
        ][0]
        assert decided.data["tier"] == "byzantine"
        assert decided.data["ok"] is True
