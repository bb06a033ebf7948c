"""InstanceMux / InstanceChannel: routing, GC, strays, id stamping."""

import asyncio

import pytest

from repro.exceptions import TransportError
from repro.net.codec import MARK, Frame
from repro.net.metrics import NetMetrics
from repro.net.transport import LocalBus
from repro.serve import InstanceChannel, InstanceMux

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

    def test_unknown_instance_is_registered_on_first_frame(self):
        # A peer may start an instance before our client submits it: the
        # pump must provision the queue rather than drop the frame.
        async def scenario():
            mux = InstanceMux(LocalBus(), NODES)
            await mux.start()
            try:
                await mux.transport.send(mark("p2", instance="early"))
                await asyncio.sleep(0)  # let the pump route it
                channel = mux.channel("early")
                return await asyncio.wait_for(channel.recv("p2"), 1.0)
            finally:
                await mux.stop()

        assert run(scenario()).instance == "early"

    def test_channel_send_stamps_instance_id(self):
        async def scenario():
            mux = InstanceMux(LocalBus(), NODES)
            await mux.start()
            try:
                channel = mux.channel("x")
                # The runner hands over unstamped frames; the channel must
                # stamp them before they hit the shared wire.
                await channel.send(mark("p1"))
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
                with pytest.raises(TransportError, match="single-use"):
                    mux.register("done")
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

    def test_register_none_instance_rejected(self):
        mux = InstanceMux(LocalBus(), NODES)
        with pytest.raises(TransportError, match="must not be None"):
            mux.register(None)

    def test_release_is_idempotent(self):
        mux = InstanceMux(LocalBus(), NODES)
        mux.register("x")
        mux.release("x")
        mux.release("x")
        assert mux.live_instances == 0

    def test_queue_for_unregistered_instance_raises(self):
        mux = InstanceMux(LocalBus(), NODES)
        with pytest.raises(TransportError, match="not registered"):
            mux.queue_for("ghost", "S")


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
