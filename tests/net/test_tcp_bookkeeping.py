"""A TcpTransport's bookkeeping does not grow with its reconnects.

A connection — either end of a socket — is held from the moment it is
made until it is lost, and no longer: a service under chaos link resets
re-dials its links again and again, and each reset must leave nothing
behind.  ``close()`` still closes whatever is open, without a
``ResourceWarning``, and wakes a ``recv`` still waiting with
``TransportError``.
"""

import asyncio
import gc
import random
import warnings

import pytest

from repro.exceptions import TransportError
from repro.net.tcp import TcpTransport

from tests.net.test_tcp_resilience import NODES, data_frame


def _bookkeeping(tcp):
    """The size of every container the transport holds."""
    return {
        name: len(value)
        for name, value in vars(tcp).items()
        if isinstance(value, (dict, list, set))
    }


async def _settled(tcp):
    """Let the aborted sockets finish going (a few loop turns each)."""
    for _ in range(500):
        if not tcp._connections:
            return
        await asyncio.sleep(0.002)


def _after_resets(count):
    async def scenario():
        tcp = TcpTransport()
        await tcp.open(NODES)
        try:
            for i in range(count):
                await tcp.send(data_frame(value=f"v{i}"))
                await asyncio.wait_for(tcp.recv("p1"), timeout=5.0)
                assert tcp.reset_connections() == 1
            await _settled(tcp)
            return _bookkeeping(tcp)
        finally:
            await tcp.close()

    return asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))


def test_bookkeeping_is_the_same_size_after_10_and_200_resets():
    after_10 = _after_resets(10)
    assert after_10 == _after_resets(200)
    assert after_10["_connections"] == after_10["_writers"] == 0


def test_a_poisoned_connection_leaves_when_it_is_abandoned():
    async def scenario():
        tcp = TcpTransport()
        await tcp.open(NODES)
        try:
            for seed in range(20):
                await tcp.send_corrupted(data_frame(), random.Random(seed))
            await _settled(tcp)
            return _bookkeeping(tcp), tcp.metrics.decode_errors
        finally:
            await tcp.close()

    bookkeeping, decode_errors = asyncio.run(
        asyncio.wait_for(scenario(), timeout=30.0)
    )
    assert decode_errors == 20
    assert bookkeeping["_connections"] == bookkeeping["_writers"] == 0


def test_close_after_many_resets_is_clean_and_wakes_a_waiting_recv():
    async def scenario():
        tcp = TcpTransport()
        await tcp.open(NODES)
        for i in range(50):
            await tcp.send(data_frame(value=f"v{i}"))
            await asyncio.wait_for(tcp.recv("p1"), timeout=5.0)
            tcp.reset_connections()
        await tcp.send(data_frame(value="open"))  # one link left open
        await asyncio.wait_for(tcp.recv("p1"), timeout=5.0)
        waiting = asyncio.ensure_future(tcp.recv("p1"))
        await asyncio.sleep(0)
        await tcp.close()
        with pytest.raises(TransportError):
            await asyncio.wait_for(waiting, timeout=1.0)
        return _bookkeeping(tcp)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        bookkeeping = asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))
        gc.collect()
    assert bookkeeping["_connections"] == bookkeeping["_servers"] == 0
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_a_send_waits_only_while_the_socket_is_full():
    """A pooled write awaits nothing until the transport buffers past its
    high-water mark (a peer that stopped reading); then sends wait, one
    cancelled send leaves the others waiting, and all complete once the
    peer reads again."""

    async def scenario():
        tcp = TcpTransport()
        await tcp.open(NODES)
        try:
            await tcp.send(data_frame(value="first"))
            await asyncio.wait_for(tcp.recv("p1"), timeout=5.0)
            (inbound,) = [
                c for c in tcp._connections if getattr(c, "node", None) == "p1"
            ]
            inbound.transport.pause_reading()
            big = data_frame(value="x" * 100_000)
            sent = 0
            waiting = []
            for _ in range(500):
                task = asyncio.ensure_future(tcp.send(big))
                await asyncio.sleep(0.001)
                if task.done():
                    task.result()
                    sent += 1
                    continue
                waiting.append(task)
                if len(waiting) == 3:
                    break
            assert len(waiting) == 3, "the socket never filled"
            waiting[1].cancel()
            inbound.transport.resume_reading()
            results = await asyncio.wait_for(
                asyncio.gather(*waiting, return_exceptions=True), timeout=10.0
            )
            assert isinstance(results[1], asyncio.CancelledError)
            assert results[0] > 0 and results[2] > 0
            # The cancelled send had handed its bytes over: every frame lands.
            received = 0
            while received < sent + len(waiting):
                await asyncio.wait_for(tcp.recv("p1"), timeout=5.0)
                received += 1
            return received
        finally:
            await tcp.close()

    assert asyncio.run(asyncio.wait_for(scenario(), timeout=60.0)) > 3
