"""Transport unit tests: LocalBus, FlakyTransport and TcpTransport."""

import asyncio

import pytest

from repro.exceptions import TransportError
from repro.net.codec import DATA, MARK, Frame
from repro.net.tcp import TcpTransport
from repro.net.chaos import ChaosPolicy, ChaosTransport
from repro.net.metrics import NetMetrics
from repro.net.supervision import SupervisedTransport
from repro.net.transport import (
    LocalBus,
    Transport,
    TransportLayer,
)
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

    def attach_tracer(self, tracer):
        self.calls.append(("attach_tracer", tracer))

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
            metrics, tracer, frame = NetMetrics(), object(), data_frame()
            layer.attach_metrics(metrics)
            layer.attach_tracer(tracer)
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
            ("attach_tracer", tracer),
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
