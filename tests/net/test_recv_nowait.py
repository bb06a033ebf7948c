"""``Transport.recv_nowait``: what has already arrived, without a wait.

The runner files every frame already queued for a node through
``recv_nowait`` in its own task and awaits ``recv`` only for a node that
must still wait, so the two must be one contract: the same frames in the
same order, ``None`` (never a wait) on an empty inbox, the same
``TransportError`` for a node without an endpoint, the same replay dedup
under supervision, and on the schedule explorer the same bookkeeping — a
late frame charged, the node marked as having listened.
"""

import asyncio
import importlib
import pkgutil
from dataclasses import replace

import pytest

import repro
from repro.exceptions import TransportError
from repro.explore import ExploredTransport, ScheduleController, run_on_virtual_clock
from repro.net.metrics import NetMetrics
from repro.net.supervision import SupervisedTransport
from repro.net.tcp import TcpTransport
from repro.net.transport import LocalBus, Transport
from repro.serve.mux import InstanceChannel, InstanceMux

from tests.net.test_transports import NODES, data_frame

KINDS = ["local", "tcp", "channel", "supervised", "explored"]


async def _opened(kind):
    """An opened transport of *kind* over ``NODES``: (transport, send, close)."""
    if kind == "channel":
        mux = InstanceMux(LocalBus(), NODES)
        await mux.start()
        channel = mux.channel("i0")
        await channel.open(NODES)

        async def close():
            await channel.close()
            await mux.stop()

        return channel, lambda f: channel.send(replace(f, instance="i0")), close
    transport = {
        "local": LocalBus,
        "tcp": TcpTransport,
        "supervised": lambda: SupervisedTransport(LocalBus()),
        "explored": lambda: ExploredTransport(ScheduleController(), 1.0),
    }[kind]()
    await transport.open(NODES)
    return transport, transport.send, transport.close


def _frames():
    # One link: a link's frames keep their order on every transport.
    return [data_frame(value=f"v{i}", round_no=1 + i // 2) for i in range(5)]


def _key(frame):
    return frame.source, frame.round_no, frame.message.payload.value


async def _take_nowait(transport, node, count):
    """*count* frames through ``recv_nowait`` alone, yielding between
    attempts while the wire (a socket, a mux pump) is still carrying them."""
    taken = []
    for _ in range(5000):
        frame = transport.recv_nowait(node)
        if frame is not None:
            taken.append(frame)
        elif len(taken) == count:
            return taken
        else:
            await asyncio.sleep(0.001)
    raise AssertionError(f"{len(taken)} of {count} frames arrived")


@pytest.mark.parametrize("kind", KINDS)
def test_recv_nowait_drains_what_recv_would_return_then_none(kind):
    async def scenario(nowait):
        transport, send, close = await _opened(kind)
        try:
            empty = transport.recv_nowait("p1")
            for frame in _frames():
                await send(frame)
            if nowait:
                got = await _take_nowait(transport, "p1", 5)
            else:
                got = [
                    await asyncio.wait_for(transport.recv("p1"), 5.0)
                    for _ in range(5)
                ]
            return empty, [_key(f) for f in got], transport.recv_nowait("p1")
        finally:
            await close()

    empty, drained, after = asyncio.run(scenario(nowait=True))
    _, received, _ = asyncio.run(scenario(nowait=False))
    assert empty is None and after is None
    assert drained == received == [_key(f) for f in _frames()]


@pytest.mark.parametrize("kind", KINDS)
def test_recv_nowait_refuses_a_node_without_an_endpoint(kind):
    async def scenario():
        transport, _, close = await _opened(kind)
        try:
            with pytest.raises(TransportError):
                transport.recv_nowait("ghost")
        finally:
            await close()

    asyncio.run(scenario())


def test_a_replayed_seq_is_dropped_and_metered_as_deduped():
    async def scenario(nowait):
        supervised = SupervisedTransport(LocalBus())
        metrics = NetMetrics()
        supervised.attach_metrics(metrics)
        await supervised.open(NODES)
        first, second = _frames()[:2]
        for frame in (replace(first, seq=1), replace(first, seq=1),
                      replace(second, seq=2)):
            await supervised.inner.send(frame)
        if nowait:
            got = [supervised.recv_nowait("p1") for _ in range(3)]
        else:
            got = [await supervised.recv("p1") for _ in range(2)] + [None]
        await supervised.close()
        return [f and f.seq for f in got], metrics.total_deduped

    assert asyncio.run(scenario(nowait=True)) == ([1, 2, None], 1)
    assert asyncio.run(scenario(nowait=False)) == ([1, 2, None], 1)


def test_explored_recv_nowait_charges_a_late_frame_and_listens():
    """A round-1 frame surfacing once round 2 has opened is a miss whether
    it is taken inline or awaited, and either way the node has listened
    at that instant — the stall-twin rule reads ``_listened``."""

    async def scenario(nowait):
        loop = asyncio.get_running_loop()
        explored = ExploredTransport(ScheduleController(), 1.0)
        await explored.open(NODES)
        explored.round_opened(2, loop.time() + 1.0)
        await asyncio.sleep(0.25)
        assert explored.recv_nowait("p2") is None
        listened_empty = explored._listened["p2"] == loop.time()
        await explored.send(data_frame(source="S", destination="p1", round_no=1))
        await asyncio.sleep(0.25)
        if nowait:
            frame = explored.recv_nowait("p1")
        else:
            frame = await explored.recv("p1")
        return (
            frame.round_no,
            set(explored.afflicted),
            listened_empty,
            explored._listened["p1"] == loop.time(),
            explored.recv_nowait("p1"),
        )

    for nowait in (True, False):
        assert run_on_virtual_clock(scenario(nowait)) == (1, {"S"}, True, True, None)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_transport_that_overrides_recv_overrides_recv_nowait():
    """A transport in ``src/`` with its own ``recv`` but the default
    ``recv_nowait`` would silently send every round to the task path."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    shipped = {
        cls for cls in _subclasses(Transport) if cls.__module__.startswith("repro.")
    }
    overriding = {cls.__name__ for cls in shipped if "recv" in vars(cls)}
    assert overriding >= {"LocalBus", "TransportLayer", "ExploredTransport"}
    # The supervisor dedups on the delivery path, not in a read: it
    # inherits the layer's forwarding reads.
    assert not {"recv", "recv_nowait"} & set(vars(SupervisedTransport))
    # TCP and the mux's channels keep their inboxes in LocalBus's queues:
    # they inherit its reads rather than writing their own.
    assert {TcpTransport, InstanceChannel} <= {
        cls for cls in shipped if issubclass(cls, LocalBus) and "recv" not in vars(cls)
    }
    assert [
        cls.__name__
        for cls in shipped
        if "recv" in vars(cls) and "recv_nowait" not in vars(cls)
    ] == []
