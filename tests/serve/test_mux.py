"""InstanceMux / InstanceChannel: routing, GC, strays, flat state."""

import asyncio

import pytest

from repro.core.scenario import build_behavior
from repro.core.spec import DegradableSpec
from repro.exceptions import TransportError
from repro.explore import run_on_virtual_clock
from repro.net.codec import MARK, Frame
from repro.net.metrics import NetMetrics
from repro.net.transport import LocalBus
from repro.serve import AgreementService, InstanceChannel, InstanceMux
from repro.serve.gateway import OUTCOME_WINDOW
from repro.sim import jsonable

NODES = ("S", "p1", "p2")


def run(coro):
    return asyncio.run(coro)


def mark(dst, instance=None, round_no=1):
    return Frame(
        kind=MARK, round_no=round_no, source="S", destination=dst,
        instance=instance,
    )


class TestRouting:
    def test_frames_route_to_their_instance_queue(self):
        async def scenario():
            mux = InstanceMux(LocalBus(), NODES)
            await mux.start()
            try:
                a = mux.channel("a")
                b = mux.channel("b")
                await mux.transport.send(mark("p1", instance="a"))
                await mux.transport.send(mark("p1", instance="b", round_no=2))
                got_a = await asyncio.wait_for(a.recv("p1"), 1.0)
                got_b = await asyncio.wait_for(b.recv("p1"), 1.0)
                return got_a, got_b
            finally:
                await mux.stop()

        got_a, got_b = run(scenario())
        assert got_a.instance == "a" and got_a.round_no == 1
        assert got_b.instance == "b" and got_b.round_no == 2

    def test_frame_for_an_unregistered_instance_is_stray(self):
        # The mux only routes: one process hosts every node of an instance
        # and registers it before its first send, so a frame naming an
        # instance the mux does not hold is counted, never provisioned.
        async def scenario():
            mux = InstanceMux(LocalBus(), NODES)
            await mux.start()
            try:
                await mux.transport.send(mark("p2", instance="early"))
                await asyncio.sleep(0)  # let the pump route it
                return mux.metrics.stray_frames, mux.live_instances
            finally:
                await mux.stop()

        assert run(scenario()) == (1, 0)

    def test_channel_send_forwards_the_stamped_frame(self):
        async def scenario():
            mux = InstanceMux(LocalBus(), NODES)
            await mux.start()
            try:
                channel = mux.channel("x")
                # The runner stamps its instance id; the channel forwards
                # the frame to the shared wire as it is.
                await channel.send(mark("p1", instance="x"))
                return await asyncio.wait_for(channel.recv("p1"), 1.0)
            finally:
                await mux.stop()

        assert run(scenario()).instance == "x"

    def test_channel_open_rejects_foreign_nodes(self):
        async def scenario():
            mux = InstanceMux(LocalBus(), NODES)
            await mux.start()
            try:
                channel = mux.channel("x")
                with pytest.raises(TransportError, match="outside the service"):
                    await channel.open(["S", "intruder"])
            finally:
                await mux.stop()

        run(scenario())

    def test_channel_exposes_shared_transport_identity(self):
        bus = LocalBus()
        mux = InstanceMux(bus, NODES)
        channel = InstanceChannel(mux, "x")
        assert channel.name == bus.name

    def test_attach_metrics_not_forwarded_to_shared_transport(self):
        # The aggregate recorder is attached once by the mux; a runner
        # attaching its per-instance recorder must not steal the
        # transport-level counters.
        bus = LocalBus()
        mux = InstanceMux(bus, NODES)
        channel = InstanceChannel(mux, "x")
        mine = NetMetrics(transport="local")
        channel.attach_metrics(mine)
        assert channel.metrics is mine
        assert mux.metrics is not mine


class TestGarbageCollection:
    def test_close_releases_and_retires_instance(self):
        async def scenario():
            mux = InstanceMux(LocalBus(), NODES)
            await mux.start()
            try:
                channel = mux.channel("done")
                assert mux.live_instances == 1
                await channel.close()
                assert mux.live_instances == 0
            finally:
                await mux.stop()

        run(scenario())

    def test_straggler_for_retired_instance_counted_not_delivered(self):
        async def scenario():
            mux = InstanceMux(LocalBus(), NODES)
            await mux.start()
            try:
                channel = mux.channel("done")
                await channel.close()
                await mux.transport.send(mark("p1", instance="done"))
                await asyncio.sleep(0)
                return mux.metrics.stray_frames, mux.live_instances
            finally:
                await mux.stop()

        strays, live = run(scenario())
        assert strays == 1
        # The straggler must NOT resurrect the retired instance.
        assert live == 0

    def test_unversioned_frame_counted_stray(self):
        # A legacy (v1) frame cannot name an instance; on a mux it has no
        # destination queue and must be dropped as stray, not crash a pump.
        async def scenario():
            mux = InstanceMux(LocalBus(), NODES)
            await mux.start()
            try:
                await mux.transport.send(mark("p1", instance=None))
                await asyncio.sleep(0)
                return mux.metrics.stray_frames
            finally:
                await mux.stop()

        assert run(scenario()) == 1

    def test_channel_for_none_instance_rejected(self):
        mux = InstanceMux(LocalBus(), NODES)
        with pytest.raises(TransportError, match="must not be None"):
            mux.channel(None)
        assert mux.live_instances == 0

    def test_release_is_idempotent(self):
        mux = InstanceMux(LocalBus(), NODES)
        channel = mux.channel("x")
        mux.release("x")
        mux.release("x")
        assert mux.live_instances == 0
        with pytest.raises(TransportError, match="no endpoint"):
            channel.recv_nowait("S")

    def test_a_retired_channel_has_no_endpoint(self):
        # A released channel drops its inboxes: its reads fail loudly
        # instead of waiting on a queue nobody fills any more.
        async def scenario():
            mux = InstanceMux(LocalBus(), NODES)
            await mux.start()
            try:
                channel = mux.channel("gone")
                assert channel.recv_nowait("S") is None
                await channel.close()
                with pytest.raises(TransportError, match="no endpoint"):
                    channel.recv_nowait("S")
                with pytest.raises(TransportError, match="no endpoint"):
                    await channel.recv("S")
            finally:
                await mux.stop()

        run(scenario())

    def test_a_channel_is_made_once(self):
        mux = InstanceMux(LocalBus(), NODES)
        first = mux.channel("x")
        assert mux.channel("x") is first
        assert mux.live_instances == 1

    def test_a_stopped_mux_holds_no_channel_or_queue(self):
        async def scenario():
            mux = InstanceMux(LocalBus(), NODES)
            await mux.start()
            channels = [mux.channel(f"i{i}") for i in range(4)]
            await mux.transport.send(mark("p1", instance="i0"))
            await asyncio.sleep(0)  # the pump routes it to i0's inbox
            await mux.stop()
            return mux, channels

        mux, channels = run(scenario())
        assert mux.live_instances == 0 and not mux._channels
        assert [channel._inboxes for channel in channels] == [{}] * 4


class TestSharedTransport:
    def test_many_channels_one_set_of_endpoints(self):
        # The whole point of the mux: N instances share one transport pair
        # per link.  LocalBus keeps exactly one inbox per node no matter
        # how many instances are live.
        async def scenario():
            bus = LocalBus()
            mux = InstanceMux(bus, NODES)
            await mux.start()
            try:
                for i in range(32):
                    mux.channel(f"i{i}")
                return len(bus._inboxes), mux.live_instances
            finally:
                await mux.stop()

        endpoints, live = run(scenario())
        assert endpoints == len(NODES)
        assert live == 32

    def test_stop_closes_shared_transport_once(self):
        async def scenario():
            bus = LocalBus()
            mux = InstanceMux(bus, NODES)
            await mux.start()
            mux.channel("a")
            mux.channel("b")
            await mux.stop()
            return bus._inboxes

        assert run(scenario()) == {}


class TestFlatState:
    def test_mux_state_is_the_same_size_after_256_and_512_instances(self):
        """The mux holds live instances only: nothing it keeps grows with
        the number of instances it has served."""
        spec = DegradableSpec(m=1, u=2, n_nodes=5)
        nodes = ("S", "p1", "p2", "p3", "p4")

        def sizes(mux):
            return {
                name: len(value)
                for name, value in vars(mux).items()
                if isinstance(value, (dict, list, set, tuple))
            }

        async def serve(service, count):
            for _ in range(count // 32):
                ids = [service.submit("S", "v") for _ in range(32)]
                for iid in ids:
                    assert (await service.decision(iid)).ok

        async def scenario():
            async with AgreementService(
                spec, nodes, record_trace=False
            ) as service:
                await serve(service, 256)
                after_256 = sizes(service.mux)
                await serve(service, 256)
                return after_256, sizes(service.mux), len(service.outcomes)

        after_256, after_512, served = run_on_virtual_clock(scenario())
        assert served == 512
        assert after_256 == after_512
        assert after_512["_channels"] == 0

    def test_payload_memo_is_the_same_size_after_256_and_512_instances(self):
        """The codec's payload memo holds distinct payload texts, not one
        per instance served: it stops growing once every payload of the
        workload has been sized, and stays within its bound."""
        spec = DegradableSpec(m=1, u=2, n_nodes=5)
        nodes = ("S", "p1", "p2", "p3", "p4")
        values = ("attack", "retreat", "hold", "regroup")
        behaviors = (None, {"p2": build_behavior("lie", nodes)})

        async def serve(service, count):
            for batch in range(count // 32):
                ids = [
                    service.submit(
                        "S", values[i % 4], behaviors=behaviors[(batch + i) % 2]
                    )
                    for i in range(32)
                ]
                for iid in ids:
                    assert (await service.decision(iid)).ok

        async def scenario():
            async with AgreementService(
                spec, nodes, record_trace=False
            ) as service:
                await serve(service, 256)
                after_256 = len(jsonable._PAYLOAD_TEXT)
                await serve(service, 256)
                return after_256, len(jsonable._PAYLOAD_TEXT)

        jsonable._PAYLOAD_TEXT.clear()
        after_256, after_512 = run_on_virtual_clock(scenario())
        assert 0 < after_256 == after_512 <= jsonable.PAYLOAD_MEMO_ENTRIES

    def test_leaf_memos_keep_the_node_ids_over_5000_instances(self):
        """An instance id and its tag (``i0042``, ``byz:i0042``) live as
        long as their instance: they are held by the small instance-scoped
        memo, so the leaf memos hold the node ids and the fixed words only
        — the same entries after 200 and 5 000 instances — instead of
        filling with two one-use keys per instance and being cleared,
        node ids and all, about every 2 000 instances."""
        spec = DegradableSpec(m=1, u=2, n_nodes=5)
        nodes = ("S", "p1", "p2", "p3", "p4")
        leaf_memos = (jsonable._STR_TEXT, jsonable._STR_LEN)

        async def serve(service, count):
            for _ in range(count // 40):
                ids = [service.submit("S", "v") for _ in range(40)]
                for iid in ids:
                    assert (await service.decision(iid)).ok

        async def scenario():
            async with AgreementService(
                spec, nodes, record_trace=False
            ) as service:
                await serve(service, 200)
                after_200 = [dict(memo) for memo in leaf_memos]
                await serve(service, 4800)
                return after_200, service.decided, len(service.outcomes)

        for memo in (*leaf_memos, jsonable._SCOPED_TEXT):
            memo.clear()
        after_200, served, held = run_on_virtual_clock(scenario())
        assert served == 5000
        assert held <= OUTCOME_WINDOW
        assert [dict(memo) for memo in leaf_memos] == after_200
        for memo in leaf_memos:
            assert set(nodes) <= set(memo)
            assert len(memo) < 32
        assert 0 < len(jsonable._SCOPED_TEXT) <= jsonable.SCOPED_MEMO_ENTRIES
