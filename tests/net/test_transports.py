"""Transport unit tests: LocalBus, FlakyTransport and TcpTransport, and the
inbox contract every node endpoint keeps."""

import asyncio

import pytest

from repro.exceptions import TransportError
from repro.net.codec import DATA, MARK, Frame
from repro.net.tcp import TcpTransport
from repro.net.chaos import ChaosPolicy, ChaosTransport
from repro.net.metrics import NetMetrics
from repro.net.supervision import SupervisedTransport
from repro.net.transport import (
    Inbox,
    LocalBus,
    Transport,
    TransportLayer,
)
from repro.serve import InstanceMux
from repro.sim.messages import Message, RelayPayload
from tests.net.flaky import FlakyTransport

NODES = ["S", "p1", "p2"]


def data_frame(source="S", destination="p1", value="engage", round_no=1):
    message = Message(
        source=source,
        destination=destination,
        payload=RelayPayload(path=(source,), value=value),
        round_sent=round_no,
        tag="byz",
    )
    return Frame(
        kind=DATA, round_no=round_no, source=source, destination=destination,
        message=message,
    )


class TestLocalBus:
    def test_send_recv_fifo(self):
        async def scenario():
            bus = LocalBus()
            await bus.open(NODES)
            first = data_frame(value="one")
            second = data_frame(value="two")
            await bus.send(first)
            await bus.send(second)
            got = [await bus.recv("p1"), await bus.recv("p1")]
            await bus.close()
            return first, second, got

        first, second, got = asyncio.run(scenario())
        assert got == [first, second]

    def test_zero_copy_delivery(self):
        """The receiver gets the very same payload object the sender sent."""

        async def scenario():
            bus = LocalBus()
            await bus.open(NODES)
            frame = data_frame()
            await bus.send(frame)
            received = await bus.recv("p1")
            await bus.close()
            return frame, received

        frame, received = asyncio.run(scenario())
        assert received is frame
        assert received.message.payload is frame.message.payload

    def test_measured_bytes_match_codec(self):
        async def scenario():
            measured = LocalBus(measure_bytes=True)
            unmeasured = LocalBus(measure_bytes=False)
            await measured.open(NODES)
            await unmeasured.open(NODES)
            nbytes = await measured.send(data_frame())
            zero = await unmeasured.send(data_frame())
            await measured.close()
            await unmeasured.close()
            return nbytes, zero

        nbytes, zero = asyncio.run(scenario())
        assert nbytes > 0
        assert zero == 0

    def test_unknown_destination_raises(self):
        async def scenario():
            bus = LocalBus()
            await bus.open(NODES)
            with pytest.raises(TransportError):
                await bus.send(data_frame(destination="ghost"))
            await bus.close()

        asyncio.run(scenario())

    def test_close_in_the_turn_a_reader_was_woken_still_wakes_it(self):
        """A reader woken by a frame that a restart then loses, on a bus
        closed in that same turn, raises instead of waiting again."""

        async def scenario():
            bus = LocalBus()
            await bus.open(NODES)
            reader = asyncio.ensure_future(bus.recv("p1"))
            await asyncio.sleep(0)
            await bus.send(data_frame())
            await bus.restart_endpoint("p1")
            await bus.close()
            with pytest.raises(TransportError):
                await asyncio.wait_for(reader, 1.0)

        asyncio.run(scenario())


class TestFlakyTransport:
    def test_fails_first_attempts_then_passes(self):
        async def scenario():
            flaky = FlakyTransport(LocalBus(), failures=2)
            await flaky.open(NODES)
            outcomes = []
            for _ in range(3):
                try:
                    await flaky.send(data_frame())
                    outcomes.append("ok")
                except TransportError:
                    outcomes.append("fail")
            received = await flaky.recv("p1")
            await flaky.close()
            return outcomes, received, flaky.injected_failures

        outcomes, received, injected = asyncio.run(scenario())
        assert outcomes == ["fail", "fail", "ok"]
        assert received.kind == DATA
        assert injected == 2

    def test_match_limits_failures_to_selected_frames(self):
        async def scenario():
            flaky = FlakyTransport(
                LocalBus(), failures=1, match=lambda f: f.source == "S"
            )
            await flaky.open(NODES)
            with pytest.raises(TransportError):
                await flaky.send(data_frame(source="S"))
            await flaky.send(data_frame(source="p2", destination="p1"))
            await flaky.close()

        asyncio.run(scenario())


class _Recording(Transport):
    """Base transport that logs every contract call it receives."""

    name = "recording"

    def __init__(self):
        self.calls = []

    def attach_metrics(self, metrics):
        self.calls.append(("attach_metrics", metrics))

    def round_opened(self, round_no, deadline, instance=None):
        self.calls.append(("round_opened", round_no, deadline, instance))

    async def open(self, nodes):
        self.calls.append(("open", tuple(nodes)))

    async def send(self, frame):
        self.calls.append(("send", frame))
        return 7

    async def recv(self, node):
        self.calls.append(("recv", node))
        return data_frame(destination=node)

    def recv_nowait(self, node):
        self.calls.append(("recv_nowait", node))
        return data_frame(destination=node)

    async def send_corrupted(self, frame, rng):
        self.calls.append(("send_corrupted", frame, rng))
        return 3

    def reset_connections(self, node=None):
        self.calls.append(("reset_connections", node))
        return 2

    async def restart_endpoint(self, node):
        self.calls.append(("restart_endpoint", node))

    async def close(self):
        self.calls.append(("close",))


class TestTransportLayer:
    def test_forwards_the_whole_contract(self):
        async def scenario():
            base = _Recording()
            layer = TransportLayer(base)
            tracer, frame = object(), data_frame()
            metrics = NetMetrics(tracer=tracer)
            layer.attach_metrics(metrics)
            assert layer.metrics is metrics and layer.tracer is tracer
            layer.round_opened(2, 1.5, "i0")
            await layer.open(NODES)
            assert await layer.send(frame) == 7
            assert (await layer.recv("p1")).destination == "p1"
            assert layer.recv_nowait("p2").destination == "p2"
            assert await layer.send_corrupted(frame, None) == 3
            assert layer.reset_connections("p2") == 2
            await layer.restart_endpoint("p2")
            async with layer:
                pass
            return base.calls, metrics, tracer, frame, layer

        calls, metrics, tracer, frame, layer = asyncio.run(scenario())
        assert calls == [
            ("attach_metrics", metrics),
            ("round_opened", 2, 1.5, "i0"),
            ("open", tuple(NODES)),
            ("send", frame),
            ("recv", "p1"),
            ("recv_nowait", "p2"),
            ("send_corrupted", frame, None),
            ("reset_connections", "p2"),
            ("restart_endpoint", "p2"),
            ("close",),
        ]
        assert layer.name == "layer+recording"

    def test_every_wrapper_is_a_layer(self):
        base = LocalBus()
        stack = SupervisedTransport(
            ChaosTransport(FlakyTransport(base), ChaosPolicy())
        )
        assert stack.name == "supervised+chaos+flaky+local"
        metrics = NetMetrics()
        stack.attach_metrics(metrics)
        layer = stack
        while isinstance(layer, TransportLayer):
            assert layer.metrics is metrics
            layer = layer.inner
        assert layer is base


class TestTcpTransport:
    def test_frame_round_trip_over_real_socket(self):
        async def scenario():
            tcp = TcpTransport()
            await tcp.open(NODES)
            frame = data_frame()
            nbytes = await tcp.send(frame)
            received = await asyncio.wait_for(tcp.recv("p1"), timeout=5.0)
            address = tcp.address_of("p1")
            await tcp.close()
            return frame, received, nbytes, address

        frame, received, nbytes, address = asyncio.run(scenario())
        # The frame crossed a real socket: equal value, distinct object.
        assert received.message == frame.message
        assert received.message is not frame.message
        assert nbytes > 0
        assert address[0] == "127.0.0.1" and address[1] > 0

    def test_marker_and_data_share_connection_in_order(self):
        async def scenario():
            tcp = TcpTransport()
            await tcp.open(NODES)
            await tcp.send(data_frame())
            await tcp.send(
                Frame(kind=MARK, round_no=1, source="S", destination="p1")
            )
            first = await asyncio.wait_for(tcp.recv("p1"), timeout=5.0)
            second = await asyncio.wait_for(tcp.recv("p1"), timeout=5.0)
            await tcp.close()
            return first.kind, second.kind

        kinds = asyncio.run(scenario())
        assert kinds == (DATA, MARK)

    def test_unknown_destination_raises(self):
        async def scenario():
            tcp = TcpTransport()
            await tcp.open(NODES)
            with pytest.raises(TransportError):
                await tcp.send(data_frame(destination="ghost"))
            await tcp.close()

        asyncio.run(scenario())

    def test_close_is_idempotent(self):
        async def scenario():
            tcp = TcpTransport()
            await tcp.open(NODES)
            await tcp.close()
            await tcp.close()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# The inbox contract: LocalBus, TcpTransport and an InstanceChannel
# ----------------------------------------------------------------------
class _Endpoint:
    """p1's inbox on one transport kind: a reader, a way in, a way out.

    ``local`` and ``tcp`` read and write one transport; ``channel`` reads
    an :class:`~repro.serve.mux.InstanceChannel` whose frames come in
    over the mux's shared LocalBus and its pump.
    """

    def __init__(self, kind):
        self.kind = kind

    async def open(self):
        if self.kind == "channel":
            self.mux = InstanceMux(LocalBus(), NODES)
            await self.mux.start()
            self.reader = self.mux.channel("i1")
            await self.reader.open(NODES)
            self.writer = self.mux.transport
        else:
            self.reader = LocalBus() if self.kind == "local" else TcpTransport()
            self.writer = self.reader
            await self.reader.open(NODES)
        return self

    def inbox(self):
        return self.reader._inboxes["p1"]

    async def send(self, value):
        frame = data_frame(value=value)
        if self.kind == "channel":
            frame = Frame(
                kind=DATA, round_no=1, source="S", destination="p1",
                message=frame.message, instance="i1",
            )
        await self.writer.send(frame)

    async def arrive(self, value):
        """Send a frame carrying *value* and wait until p1's inbox holds
        it (nobody reads meanwhile)."""
        inbox = self.inbox()
        queued = len(inbox._items)
        await self.send(value)
        for _ in range(5000):
            if len(inbox._items) > queued:
                return
            await asyncio.sleep(0.001)
        raise AssertionError(f"{value!r} never reached p1's inbox")

    async def recv(self):
        return value_of(await asyncio.wait_for(self.reader.recv("p1"), 5.0))

    async def close(self):
        if self.kind == "channel":
            await self.mux.stop()
        else:
            await self.reader.close()


def value_of(frame):
    return frame.message.payload.value


async def settle():
    """Let every ready task take its steps (a reader parks on its inbox)."""
    for _ in range(5):
        await asyncio.sleep(0)


@pytest.mark.parametrize("kind", ["local", "tcp", "channel"])
class TestInboxContract:
    def test_fifo_across_interleaved_puts_and_gets(self, kind):
        async def scenario():
            endpoint = await _Endpoint(kind).open()
            try:
                got = []
                await endpoint.arrive("a")
                await endpoint.arrive("b")
                got.append(await endpoint.recv())
                await endpoint.arrive("c")
                got.append(await endpoint.recv())
                got.append(value_of(endpoint.reader.recv_nowait("p1")))
                waiting = asyncio.ensure_future(endpoint.reader.recv("p1"))
                await settle()
                await endpoint.send("d")
                await endpoint.send("e")
                got.append(value_of(await asyncio.wait_for(waiting, 5.0)))
                got.append(await endpoint.recv())
                return got
            finally:
                await endpoint.close()

        assert asyncio.run(scenario()) == ["a", "b", "c", "d", "e"]

    def test_a_recv_cancelled_after_its_frame_was_put_leaves_it_queued(
        self, kind, monkeypatch
    ):
        """The round deadline firing in the turn a frame is handed over
        loses nothing: the frame waits for the next read (a late frame)."""
        put = Inbox.put_nowait

        async def scenario():
            endpoint = await _Endpoint(kind).open()
            try:
                target = endpoint.inbox()
                reader = asyncio.ensure_future(endpoint.reader.recv("p1"))
                await settle()

                def put_then_cancel(inbox, item):
                    put(inbox, item)
                    if inbox is target:
                        reader.cancel()

                monkeypatch.setattr(Inbox, "put_nowait", put_then_cancel)
                await endpoint.send("handed-over")
                await asyncio.wait([reader], timeout=5.0)
                assert reader.cancelled()
                frame = endpoint.reader.recv_nowait("p1")
                return None if frame is None else value_of(frame)
            finally:
                await endpoint.close()

        assert asyncio.run(scenario()) == "handed-over"

    def test_a_second_concurrent_recv_raises(self, kind):
        async def scenario():
            endpoint = await _Endpoint(kind).open()
            try:
                first = asyncio.ensure_future(endpoint.reader.recv("p1"))
                await settle()
                with pytest.raises(TransportError):
                    await asyncio.wait_for(endpoint.reader.recv("p1"), 1.0)
                await endpoint.send("x")
                return value_of(await asyncio.wait_for(first, 5.0))
            finally:
                await endpoint.close()

        assert asyncio.run(scenario()) == "x"

    def test_close_wakes_a_waiting_recv_and_refuses_later_ones(self, kind):
        """Closing a bus, or releasing a channel, drops its inboxes: a read
        parked on one raises instead of waiting forever."""

        async def scenario():
            endpoint = await _Endpoint(kind).open()
            try:
                waiting = asyncio.ensure_future(endpoint.reader.recv("p1"))
                await settle()
                if kind == "channel":
                    endpoint.mux.release("i1")
                else:
                    await endpoint.reader.close()
                with pytest.raises(TransportError):
                    await asyncio.wait_for(waiting, 1.0)
                with pytest.raises(TransportError):
                    await asyncio.wait_for(endpoint.reader.recv("p1"), 1.0)
            finally:
                await endpoint.close()

        asyncio.run(scenario())


class TestRestartInPlace:
    @pytest.mark.parametrize("kind", ["local", "tcp"])
    def test_restart_empties_the_inbox_and_a_waiting_recv_reads_on(self, kind):
        async def scenario():
            endpoint = await _Endpoint(kind).open()
            try:
                inbox = endpoint.inbox()
                await endpoint.arrive("lost")
                await endpoint.writer.restart_endpoint("p1")
                assert endpoint.inbox() is inbox
                assert endpoint.reader.recv_nowait("p1") is None
                waiting = asyncio.ensure_future(endpoint.reader.recv("p1"))
                await settle()
                await endpoint.writer.restart_endpoint("p1")
                await endpoint.send("after")
                return value_of(await asyncio.wait_for(waiting, 5.0))
            finally:
                await endpoint.close()

        assert asyncio.run(scenario()) == "after"

    def test_a_channel_reader_outlives_its_node_restart(self):
        """A channel's endpoint is the shared transport's: the channel
        cannot restart it, and a read waiting on it through a node restart
        gets the next frame."""

        async def scenario():
            endpoint = await _Endpoint("channel").open()
            try:
                with pytest.raises(TransportError):
                    await endpoint.reader.restart_endpoint("p1")
                waiting = asyncio.ensure_future(endpoint.reader.recv("p1"))
                await settle()
                await endpoint.mux.restart_node("p1")
                await endpoint.send("after")
                return value_of(await asyncio.wait_for(waiting, 5.0))
            finally:
                await endpoint.close()

        assert asyncio.run(scenario()) == "after"
