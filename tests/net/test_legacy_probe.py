"""A probe frame from a peer that still sends heartbeats.

Older peers probed idle links with ``kind="ping"`` frames (round 0, no
sequence number) and answered probes with ``"pong"``.  The codec still
decodes any kind, and nothing answers or interprets one any more: the
supervisor hands it up like any unstamped frame, the service mux counts
it stray (it names no instance), and a runner meters it as a late frame
and files nothing from it.
"""

import asyncio

from repro.core.spec import DegradableSpec
from repro.explore.clock import run_on_virtual_clock
from repro.net.codec import Frame
from repro.net.runner import run_agreement_async
from repro.net.supervision import SupervisedTransport
from repro.net.transport import LocalBus, TransportLayer
from repro.serve.mux import InstanceMux
from repro.sim.trace import EventKind

NODES = ["S", "p1", "p2", "p3", "p4"]


def _probe(source="p1", destination="S"):
    return Frame(
        kind="ping", round_no=0, source=source, destination=destination,
        sent_at=2.5,
    )


class _SendLog(TransportLayer):
    layer = "sendlog"

    def __init__(self, inner):
        super().__init__(inner)
        self.sent = []

    async def send(self, frame):
        self.sent.append(frame)
        return await self.inner.send(frame)


class _ProbedBus(LocalBus):
    """A LocalBus whose ``p2`` endpoint holds a probe from ``p1`` on open."""

    async def open(self, nodes):
        await super().open(nodes)
        await self.send(_probe(destination="p2"))


def test_supervisor_returns_the_probe_unanswered():
    async def scenario():
        bus = LocalBus()
        log = _SendLog(bus)
        sup = SupervisedTransport(log)
        await sup.open(NODES)
        try:
            await bus.send(_probe())
            got = await asyncio.wait_for(sup.recv("S"), timeout=5.0)
        finally:
            await sup.close()
        return got, log.sent

    got, sent = asyncio.run(scenario())
    assert got == _probe()
    assert sent == []  # no pong


def test_mux_counts_the_probe_stray():
    async def scenario():
        bus = LocalBus()
        mux = InstanceMux(SupervisedTransport(bus), NODES)
        await mux.start()
        try:
            await bus.send(_probe())
            for _ in range(100):
                if mux.metrics.stray_frames:
                    break
                await asyncio.sleep(0)
        finally:
            await mux.stop()
        return mux.metrics

    metrics = asyncio.run(scenario())
    assert metrics.stray_frames == 1
    assert metrics.counters()["stray_frames"] == 1


def test_runner_meters_the_probe_late_and_files_nothing():
    spec = DegradableSpec(m=1, u=2, n_nodes=5)

    def run(transport):
        return run_on_virtual_clock(
            run_agreement_async(
                spec, NODES, "S", "engage", transport=transport,
                round_timeout=1.0, supervise=True,
            )
        )

    clean, probed = run(LocalBus()), run(_ProbedBus())
    assert probed.decisions == clean.decisions
    expected = dict(clean.metrics.counters())
    expected["r1.late_frames"] += 1
    assert probed.metrics.counters() == expected
    late = probed.trace.of_kind(EventKind.LATE_FRAME)
    assert [(e.round_no, e.source, e.destination) for e in late] == [
        (1, "p1", "p2")
    ]
    assert late[0].meta["frame_round"] == 0
