"""One observer seam: a transport layer reaches the run's bus and tracer
through the recorder it holds.

A served stack gets one recorder — the service's aggregate, built with its
bus and tracer — attached once below the mux, so chaos and supervision
publish and trace into the same places the gateway does.  A layer nobody
attached records into a private recorder of its own instead of checking
whether it has one.
"""

from repro.core.spec import DegradableSpec
from repro.explore import run_on_virtual_clock
from repro.net.chaos import ChaosPolicy, ChaosTransport, EndpointRestart
from repro.net.codec import DATA, Frame
from repro.net.supervision import SupervisedTransport
from repro.net.transport import LocalBus, TransportLayer
from repro.obs.events import ENDPOINT_RESTART, LINK_OUTAGE, EventBus
from repro.serve import AgreementService
from repro.sim.messages import Message, RelayPayload
from repro.trace import Tracer
from tests.net.flaky import FlakyTransport

SPEC = DegradableSpec(m=1, u=2, n_nodes=5)
NODES = ("S", "p1", "p2", "p3", "p4")


def data_frame(source="S", destination="p1", round_no=1):
    message = Message(
        source=source,
        destination=destination,
        payload=RelayPayload(path=(source,), value="engage"),
        round_sent=round_no,
        tag="byz",
    )
    return Frame(
        kind=DATA, round_no=round_no, source=source, destination=destination,
        message=message,
    )


class TestServedStack:
    def test_every_layer_holds_the_aggregate_recorder(self):
        """Supervision above chaos above a flaky bus: the first send on
        every link fails once (a healed outage), chaos duplicates some
        frames (supervision dedups them) and restarts ``p2``'s endpoint at
        round 2.  Every layer holds the service's recorder, so both
        layers' events reach the service bus and its spans."""
        bus, tracer = EventBus(), Tracer(11)

        async def scenario():
            service = AgreementService(
                SPEC,
                NODES,
                transport=FlakyTransport(LocalBus(), failures=1),
                chaos=ChaosPolicy(
                    duplicate_probability=0.3,
                    restarts=(EndpointRestart("p2", 2),),
                    seed=5,
                ),
                supervise=True,
                events=bus,
                tracer=tracer,
            )
            async with service:
                for sender in ("S", "p1"):
                    await service.submit_and_wait(sender, "alpha")
            return service

        service = run_on_virtual_clock(scenario())
        aggregate = service.aggregate_metrics
        assert (aggregate.bus, aggregate.tracer) == (bus, tracer)
        layers, layer = [], service.mux.transport
        while isinstance(layer, TransportLayer):
            layers.append(layer)
            assert layer.metrics is aggregate
            assert layer.tracer is tracer
            layer = layer.inner
        assert [type(l) for l in layers] == [
            SupervisedTransport, ChaosTransport, FlakyTransport,
        ]

        kinds = {event.kind for event in bus.recent()}
        assert {ENDPOINT_RESTART, LINK_OUTAGE} <= kinds
        names = {span.name for span in tracer.spans}
        assert {"chaos_restart", "link_heal"} <= names
        annotations = {e.name for span in tracer.spans for e in span.events}
        assert {"chaos_dup", "backoff"} <= annotations
        assert aggregate.endpoint_restarts == 1
        assert aggregate.total_outages > 0 and aggregate.total_deduped > 0


class TestUnattachedLayers:
    """The path the recorder None-guards used to cover: a layer driven
    without a runner records into its own recorder, and never raises."""

    def test_bare_chaos_records_drops_and_scheduled_faults(self):
        chaos = ChaosTransport(
            LocalBus(),
            ChaosPolicy(
                drop_probability=1.0,
                restarts=(EndpointRestart("p1", 2),),
                link_resets=(2,),
            ),
        )

        async def scenario():
            await chaos.open(NODES)
            try:
                await chaos.send(data_frame(round_no=1))
                await chaos.send(data_frame(round_no=2))
            finally:
                await chaos.close()

        run_on_virtual_clock(scenario())
        metrics = chaos.metrics
        assert chaos.tracer is None and metrics.bus is None
        assert metrics.transport == "chaos+local"
        assert [metrics.round(r).chaos_drops for r in (1, 2)] == [1, 1]
        assert (metrics.endpoint_restarts, metrics.link_resets) == (1, 1)

    def test_bare_supervision_records_outage_and_dedup(self):
        sup = SupervisedTransport(FlakyTransport(LocalBus(), failures=1))

        async def scenario():
            await sup.open(NODES)
            try:
                await sup.send(data_frame())  # fails once, healed
                delivered = sup.recv_nowait("p1")
                await sup.inner.send(delivered)  # a replay of seq 1
                return delivered, sup.recv_nowait("p1")
            finally:
                await sup.close()

        delivered, replay = run_on_virtual_clock(scenario())
        assert delivered.seq == 1 and replay is None
        assert sup.tracer is None and sup.metrics.bus is None
        link = sup.metrics.link("S", "p1")
        assert (link.outages, link.deduped) == (1, 1)
        assert sup.inner.metrics is not sup.metrics
