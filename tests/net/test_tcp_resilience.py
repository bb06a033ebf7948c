"""TcpTransport resilience: poisoned bytes kill one connection, not the node.

Regression tests for the reader-loop hardening: before it, a frame whose
body failed to decode raised out of the handler coroutine and silently
killed the *reader* for that node — every later sender found a dead
endpoint.  Now the decode failure is contained: frames decoded before the
poison are still delivered, the poisoned connection alone is dropped (and
counted), and the endpoint keeps serving fresh connections.
"""

import asyncio
import struct

from repro.net.codec import BATCH, DATA, Frame, pack_frame
from repro.net.metrics import NetMetrics
from repro.net.tcp import TcpTransport
from repro.sim.messages import Message, RelayPayload

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


def poisoned_frame_bytes(body=b"\xff\xff\xff not json"):
    """A well-framed length prefix around bytes that cannot decode."""
    return struct.pack(">I", len(body)) + body


class TestPoisonedConnection:
    def test_endpoint_survives_a_corrupt_frame(self):
        async def scenario():
            tcp = TcpTransport()
            metrics = NetMetrics(transport=tcp.name)
            tcp.attach_metrics(metrics)
            await tcp.open(NODES)
            host, port = tcp.address_of("p1")

            # A rogue connection delivers garbage straight to the socket.
            _, writer = await asyncio.open_connection(host, port)
            writer.write(poisoned_frame_bytes())
            await writer.drain()
            writer.close()

            # The endpoint must still accept and deliver real traffic.
            await tcp.send(data_frame())
            received = await asyncio.wait_for(tcp.recv("p1"), timeout=5.0)

            # Give the handler a beat to record the decode error.
            for _ in range(50):
                if metrics.decode_errors:
                    break
                await asyncio.sleep(0.01)
            await tcp.close()
            return received, metrics.decode_errors

        received, decode_errors = asyncio.run(scenario())
        assert received.kind == DATA
        assert decode_errors == 1

    def test_valid_frames_before_the_poison_are_delivered(self):
        """One chunk carrying [valid frame][poisoned frame]: the valid one
        must come through even though the stream dies right after it."""

        async def scenario():
            tcp = TcpTransport()
            metrics = NetMetrics(transport=tcp.name)
            tcp.attach_metrics(metrics)
            await tcp.open(NODES)
            host, port = tcp.address_of("p1")

            _, writer = await asyncio.open_connection(host, port)
            writer.write(pack_frame(data_frame()) + poisoned_frame_bytes())
            await writer.drain()
            writer.close()

            received = await asyncio.wait_for(tcp.recv("p1"), timeout=5.0)
            for _ in range(50):
                if metrics.decode_errors:
                    break
                await asyncio.sleep(0.01)
            await tcp.close()
            return received, metrics.decode_errors

        received, decode_errors = asyncio.run(scenario())
        assert received.kind == DATA
        assert received.message.payload.value == "engage"
        assert decode_errors == 1

    def test_json_that_is_no_frame_is_contained_and_counted(self):
        """One chunk carrying [valid BATCH][``[1]``]: valid JSON but no
        frame.  The BATCH is delivered, the poison counted once, and the
        endpoint serves the next connection."""
        batch = Frame(
            kind=BATCH, round_no=1, source="S", destination="p1",
            messages=(data_frame().message,), mark=True, seq=1,
        )

        async def scenario():
            tcp = TcpTransport()
            metrics = NetMetrics(transport=tcp.name)
            tcp.attach_metrics(metrics)
            await tcp.open(NODES)
            host, port = tcp.address_of("p1")

            _, writer = await asyncio.open_connection(host, port)
            writer.write(pack_frame(batch) + poisoned_frame_bytes(b"[1]"))
            await writer.drain()
            writer.close()

            first = await asyncio.wait_for(tcp.recv("p1"), timeout=5.0)
            for _ in range(50):
                if metrics.decode_errors:
                    break
                await asyncio.sleep(0.01)
            await tcp.send(data_frame(value="second"))
            second = await asyncio.wait_for(tcp.recv("p1"), timeout=5.0)
            await tcp.close()
            return first, second, metrics.decode_errors

        first, second, decode_errors = asyncio.run(scenario())
        assert first == batch
        assert second.message.payload.value == "second"
        assert decode_errors == 1

    def test_oversized_length_prefix_contained_too(self):
        async def scenario():
            tcp = TcpTransport()
            metrics = NetMetrics(transport=tcp.name)
            tcp.attach_metrics(metrics)
            await tcp.open(NODES)
            host, port = tcp.address_of("p1")

            _, writer = await asyncio.open_connection(host, port)
            writer.write(b"\xff\xff\xff\xff")  # length 2**32 - 1
            await writer.drain()
            writer.close()

            await tcp.send(data_frame())
            received = await asyncio.wait_for(tcp.recv("p1"), timeout=5.0)
            for _ in range(50):
                if metrics.decode_errors:
                    break
                await asyncio.sleep(0.01)
            await tcp.close()
            return received, metrics.decode_errors

        received, decode_errors = asyncio.run(scenario())
        assert received.kind == DATA
        assert decode_errors == 1


class TestSendCorrupted:
    def test_mangled_bytes_reach_the_wire_and_are_absorbed(self):
        """``send_corrupted`` writes genuinely damaged bytes; the receiver
        drops them without ever surfacing a frame, and later sends from the
        same source still arrive (the poisoned sender connection was
        retired, a fresh one replaces it)."""
        import random

        async def scenario():
            tcp = TcpTransport()
            metrics = NetMetrics(transport=tcp.name)
            tcp.attach_metrics(metrics)
            await tcp.open(NODES)
            nbytes = await tcp.send_corrupted(data_frame(), random.Random(3))
            await tcp.send(data_frame(value="after"))
            received = await asyncio.wait_for(tcp.recv("p1"), timeout=5.0)
            for _ in range(50):
                if metrics.decode_errors:
                    break
                await asyncio.sleep(0.01)
            await tcp.close()
            return nbytes, received, metrics.decode_errors

        nbytes, received, decode_errors = asyncio.run(scenario())
        assert nbytes > 0
        assert received.message.payload.value == "after"
        assert decode_errors == 1


class TestCloseHygiene:
    def test_open_close_soak(self):
        """Repeated open/close cycles with live connections leak nothing
        and never hang: close() awaits each writer's wait_closed (bounded
        by a timeout) before cancelling the readers."""

        async def scenario():
            for _ in range(5):
                tcp = TcpTransport()
                await tcp.open(NODES)
                await tcp.send(data_frame())
                await asyncio.wait_for(tcp.recv("p1"), timeout=5.0)
                await tcp.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))

    def test_close_after_corruption_is_clean(self):
        import random

        async def scenario():
            tcp = TcpTransport()
            await tcp.open(NODES)
            await tcp.send_corrupted(data_frame(), random.Random(5))
            await tcp.close()
            await tcp.close()  # idempotent even with retired writers

        asyncio.run(asyncio.wait_for(scenario(), timeout=10.0))


class TestPeerClosesMidRound:
    """Regression: a peer yanking the connection mid-round used to escape
    as a raw ConnectionError from the send path.  It must surface as a
    metered TransportError (link loss the caller can heal or let resolve
    to V_d) — and heal transparently under a SupervisedTransport."""

    def test_dead_peer_is_metered_transport_error(self):
        import pytest

        from repro.exceptions import TransportError

        async def scenario():
            tcp = TcpTransport()
            metrics = NetMetrics(transport=tcp.name)
            tcp.attach_metrics(metrics)
            await tcp.open(NODES)
            try:
                await tcp.send(data_frame())  # pools the S->p1 connection
                await asyncio.wait_for(tcp.recv("p1"), timeout=5.0)
                # The peer process dies outright: its listener vanishes and
                # the pooled connection is severed, so the send's re-dial
                # is refused.  The error must surface as a metered
                # TransportError, never a raw ConnectionError.
                server = tcp._servers.pop("p1")
                server.close()
                await server.wait_closed()
                tcp._writers[("S", "p1")].transport.abort()
                await asyncio.sleep(0)  # let the abort land
                with pytest.raises(TransportError):
                    await tcp.send(data_frame(value="after-reset"))
            finally:
                await tcp.close()
            return metrics

        metrics = asyncio.run(scenario())
        assert metrics.link("S", "p1").errors >= 1

    def test_supervisor_heals_the_reset_and_counts_the_reconnect(self):
        import random

        from repro.net.supervision import SupervisedTransport

        async def scenario():
            tcp = TcpTransport()
            sup = SupervisedTransport(tcp, rng=random.Random(0))
            metrics = NetMetrics(transport=sup.name)
            sup.attach_metrics(metrics)
            await sup.open(NODES)
            try:
                await sup.send(data_frame(value="before"))
                await asyncio.wait_for(sup.recv("p1"), timeout=5.0)
                severed = tcp.reset_connections()
                assert severed >= 1
                # The supervised send re-dials inside its retry budget and
                # the frame arrives — no exception, no absence.
                nbytes = await sup.send(data_frame(value="after"))
                assert nbytes > 0
                frame = await asyncio.wait_for(sup.recv("p1"), timeout=5.0)
                assert frame.message.payload.value == "after"
            finally:
                await sup.close()
            return metrics

        metrics = asyncio.run(scenario())
        assert metrics.total_reconnects >= 1
        assert metrics.total_send_failures == 0
