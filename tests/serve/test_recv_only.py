"""A transport that implements only ``recv`` still serves.

Every transport in ``src/`` delivers: a frame is filed in the call that
landed it.  A wrapper that forwards only ``open``/``close``/``send``/
``recv`` — the shape of a timing shim around the wire — gets the
:class:`~repro.net.transport.Transport` default delivery instead: one
reader task per node hands what ``recv`` returns down the delivery path.
Under a service, with and without supervision, it decides as the plain
stack does, and stopping the service leaves no task behind.
"""

import asyncio

import pytest

from repro.core.spec import DegradableSpec
from repro.explore import run_on_virtual_clock
from repro.net.transport import LocalBus, Transport
from repro.serve import AgreementService

SPEC = DegradableSpec(m=1, u=2, n_nodes=5)
NODES = ["S", "p1", "p2", "p3", "p4"]
INSTANCES = 64


class RecvOnly(Transport):
    """Forwards the four calls a minimal transport must have, and no more."""

    def __init__(self, inner: Transport) -> None:
        self.inner = inner
        self.received = 0

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    async def open(self, nodes) -> None:
        await self.inner.open(nodes)

    async def close(self) -> None:
        await self.inner.close()

    async def send(self, frame) -> int:
        return await self.inner.send(frame)

    async def recv(self, node):
        frame = await self.inner.recv(node)
        self.received += 1
        return frame


def _serve(transport, supervise):
    async def scenario():
        service = AgreementService(
            SPEC, NODES, transport=transport, supervise=supervise,
            max_inflight=8, round_timeout=1.0, record_trace=False,
        )
        async with service:
            ids = [
                service.submit(NODES[i % len(NODES)], f"v{i % 3}")
                for i in range(INSTANCES)
            ]
            outcomes = [await service.decision(iid) for iid in ids]
        left = [
            task for task in asyncio.all_tasks()
            if task is not asyncio.current_task() and not task.done()
        ]
        return outcomes, left, service.aggregate_metrics.stray_frames

    return run_on_virtual_clock(scenario())


@pytest.mark.parametrize("supervise", [False, True])
def test_a_recv_only_transport_decides_and_stops_clean(supervise):
    shim = RecvOnly(LocalBus())
    outcomes, left, strays = _serve(shim, supervise)
    plain, _, _ = _serve(LocalBus(), supervise)
    assert len(outcomes) == INSTANCES
    assert all(outcome.ok for outcome in outcomes)
    assert [o.decisions for o in outcomes] == [o.decisions for o in plain]
    assert left == []
    assert strays == 0
    # Every frame came up through the shim's recv.
    assert shim.received > 0
