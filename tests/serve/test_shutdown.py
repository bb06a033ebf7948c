"""Shutdown hygiene and recovery: idempotent close, round deadlines, restart.

The service must tear down the same way every time — close twice, close
behind a wedged instance, close with a client's future cancelled —
without leaking tasks or resurrecting retired instance channels.  Nothing
above the runner bounds an instance: a transport that never returns or
never delivers costs it exactly its rounds' deadlines, and restarts must
free resources instead of wedging them.
"""

import asyncio
import random

import pytest

from repro.core.spec import DegradableSpec
from repro.core.values import DEFAULT
from repro.exceptions import ConfigurationError, TransportError
from repro.explore import run_on_virtual_clock
from repro.net.chaos import ChaosPolicy
from repro.net.chaos.policy import EndpointRestart
from repro.net.tcp import TcpTransport
from repro.net.transport import LocalBus
from repro.obs.prom import metrics_registry, parse_exposition
from repro.serve import AgreementService, record_service_run
from repro.serve.mux import InstanceMux
from repro.sim.trace import EventKind

SPEC = DegradableSpec(m=1, u=2, n_nodes=5)
NODES = ("S", "p1", "p2", "p3", "p4")


class WedgeBus(LocalBus):
    """LocalBus that hangs forever on frames of designated instances."""

    def __init__(self, wedge_instances=()):
        super().__init__()
        self.wedge_instances = set(wedge_instances)

    async def send(self, frame):
        if frame.instance in self.wedge_instances:
            await asyncio.sleep(3600)
        return await super().send(frame)


class MuteBus(LocalBus):
    """LocalBus that silently loses every frame of instance ``mute``."""

    async def send(self, frame):
        return 0 if frame.instance == "mute" else await super().send(frame)


def serve_behind(transport, instance_id, round_timeout):
    """On the virtual clock: serve *instance_id* then one healthy instance,
    one slot, over *transport*; return both outcomes, the virtual seconds
    the first took, and the service."""

    async def scenario():
        async with AgreementService(
            SPEC, NODES,
            transport=transport,
            round_timeout=round_timeout,
            max_inflight=1,
        ) as service:
            loop = asyncio.get_running_loop()
            started = loop.time()
            first = await service.submit_and_wait(
                "S", "v", instance_id=instance_id
            )
            waited = loop.time() - started
            healthy = await service.submit_and_wait("S", "w")
            return first, waited, healthy, service

    return run_on_virtual_clock(scenario())


def leaked_tasks():
    current = asyncio.current_task()
    return [t for t in asyncio.all_tasks() if t is not current and not t.done()]


class TestCloseHygiene:
    def test_close_is_idempotent(self):
        async def scenario():
            service = AgreementService(SPEC, NODES, round_timeout=1.0)
            await service.start()
            await service.submit_and_wait("S", "v")
            await service.close()
            await service.close()  # second close must be a clean no-op
            await service.close()
            return leaked_tasks()

        assert asyncio.run(scenario()) == []

    def test_close_before_start_is_safe(self):
        async def scenario():
            service = AgreementService(SPEC, NODES)
            await service.close()
            return leaked_tasks()

        assert asyncio.run(scenario()) == []

    def test_double_close_after_cancelled_inflight_leaks_nothing(self):
        async def scenario():
            service = AgreementService(
                SPEC, NODES,
                transport=WedgeBus(wedge_instances={"wedge"}),
                round_timeout=0.2,
                max_inflight=2,
            )
            await service.start()
            iid = service.submit("S", "v", instance_id="wedge")
            # The client walks away mid-flight; the worker must not choke
            # on the cancelled future when the round deadlines end the job.
            service._futures[iid].cancel()
            await service.close()
            await service.close()
            return leaked_tasks()

        assert run_on_virtual_clock(scenario()) == []

    def test_mux_never_delivers_to_a_retired_channel(self):
        """GC under cancellation: once a channel is released, frames for
        its instance are counted stray — never delivered, never able to
        resurrect the channel's inboxes."""

        async def scenario():
            bus = LocalBus()
            mux = InstanceMux(bus, NODES)
            await mux.start()
            try:
                channel = mux.channel("i-gone")
                await channel.open(list(NODES))
                reader = asyncio.ensure_future(channel.recv("p1"))
                await asyncio.sleep(0)  # reader parks on the queue
                reader.cancel()
                await asyncio.gather(reader, return_exceptions=True)
                await channel.close()  # GC: instance retired

                from dataclasses import replace as dc_replace

                from repro.net.codec import DATA, Frame
                from repro.sim.messages import Message, RelayPayload

                frame = Frame(
                    kind=DATA, round_no=1, source="S", destination="p1",
                    message=Message(
                        source="S", destination="p1",
                        payload=RelayPayload(path=("S",), value="late"),
                        round_sent=1, tag="byz",
                    ),
                    instance="i-gone",
                )
                await bus.send(frame)
                await asyncio.sleep(0.05)  # let the pump route it
                strays = mux.metrics.stray_frames
                live = mux.live_instances
                with pytest.raises(TransportError):
                    channel.recv_nowait("p1")
            finally:
                await mux.stop()
            return strays, live

        strays, live = asyncio.run(scenario())
        assert strays == 1
        assert live == 0


class TestWatchdog:
    """There is no watchdog: a served instance is bounded by its rounds'
    deadlines alone, and its verdict is ``classify`` of its own decisions.
    (1,2,5) runs three rounds; the third only ingests, so an instance that
    hears nothing waits out two deadlines."""

    def test_a_wedged_instance_decides_at_exactly_its_rounds_deadlines(self):
        # Every send of "wedge" hangs: the round deadline cuts each round's
        # send phase off, and every frame the rounds built is a send failure.
        wedged, waited, healthy, service = serve_behind(
            WedgeBus(wedge_instances={"wedge"}), "wedge", 1.0
        )
        assert waited == 2.0
        assert wedged.metrics.round_durations() == [1.0, 1.0, 0.0]
        built = len(wedged.trace.of_kind(EventKind.COALESCED))
        assert wedged.metrics.total_send_failures == built == 16
        assert wedged.metrics.total_frames == 0
        assert wedged.trace.of_kind(EventKind.FRAME_SENT) == []
        assert set(wedged.decisions.values()) == {DEFAULT}
        assert not wedged.watchdogged and not wedged.ok
        assert wedged.report.violations == [
            "D.1 violated with f=0 <= m=1: fault-free receivers did not "
            "all adopt the sender's value"
        ]
        # The slot was freed: the next instance decides behind it.
        assert healthy.ok and set(healthy.decisions.values()) == {"w"}
        # Both are folded and both are on the record.
        record = record_service_run(service)
        listed = [entry["id"] for entry in record.meta["instances"]]
        assert listed == ["wedge", healthy.instance_id]
        samples = parse_exposition(
            metrics_registry(service.aggregate_metrics, service=service).render()
        )
        assert (
            samples['repro_instances_total{outcome="decided"}']
            == samples["repro_instances_folded_total"]
            == len(service.outcomes)
            == 2
        )

    def test_a_mute_instance_ends_at_its_own_deadlines(self):
        # Every frame of "mute" is lost in silence: each round waits out
        # its own 60 s deadline and files every expected peer as a timeout.
        mute, waited, healthy, service = serve_behind(MuteBus(), "mute", 60.0)
        assert waited == 120.0
        assert mute.metrics.round_durations() == [60.0, 60.0, 0.0]
        assert mute.metrics.total_timeouts == 16
        assert mute.metrics.total_send_failures == 0
        assert set(mute.decisions.values()) == {DEFAULT}
        assert not mute.watchdogged and not mute.ok
        assert healthy.ok and healthy.metrics.total_timeouts == 0
        assert service.aggregate_metrics.total_timeouts == 16

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AgreementService(SPEC, NODES, round_timeout=0.0)
        with pytest.raises(ConfigurationError):
            AgreementService(SPEC, NODES, round_timeout=-1.0)

    def test_cold_start_retry_hint_is_clamped(self):
        # Regression: with no latency history the hint used to parrot
        # round_timeout verbatim — a 5s "come back later" from a service
        # that had simply not finished its first instance yet.
        generous = AgreementService(SPEC, NODES, round_timeout=5.0)
        assert generous.retry_after_hint() == 1.0
        tiny = AgreementService(SPEC, NODES, round_timeout=0.004)
        assert tiny.retry_after_hint() == 0.01
        mid = AgreementService(SPEC, NODES, round_timeout=0.25)
        assert mid.retry_after_hint() == 0.25


class TestRestartNode:
    def test_restart_reattaches_pump_and_instances_complete(self):
        async def scenario():
            async with AgreementService(
                SPEC, NODES, round_timeout=0.3
            ) as service:
                before = await service.submit_and_wait("S", "v1")
                await service.restart_node("p2")
                after = await service.submit_and_wait("S", "v2")
                return before, after, service

        before, after, service = asyncio.run(scenario())
        assert before.ok and after.ok
        assert after.decisions["p2"] == "v2"  # restarted node still decides
        assert service.aggregate_metrics.endpoint_restarts == 1

    def test_restart_mid_instance_degrades_not_hangs(self):
        """Kill a node while an instance is in flight: the run completes
        within its deadlines and the restarted node's absence is at worst
        a recorded omission, never a wedge."""

        async def scenario():
            async with AgreementService(
                SPEC, NODES, round_timeout=0.3, supervise=True,
            ) as service:
                iid = service.submit("S", "v")
                await asyncio.sleep(0)  # let the worker pick it up
                await service.restart_node("p3")
                outcome = await asyncio.wait_for(
                    service.decision(iid), timeout=10.0
                )
                return outcome

        outcome = asyncio.run(scenario())
        assert not outcome.watchdogged
        assert set(outcome.decisions) == set(NODES) - {"S"}
        for value in outcome.decisions.values():
            assert value in ("v", DEFAULT)

    def test_a_chaos_restart_leaves_the_node_serving(self):
        """A chaos-scheduled endpoint restart is a transient omission: the
        node keeps its inbox, so its pump goes on reading it and every later
        instance hears it.  A replaced inbox would leave the pump parked on
        the old one, and p2 deaf for good."""

        async def scenario():
            async with AgreementService(
                SPEC, NODES,
                chaos=ChaosPolicy(restarts=(EndpointRestart("p2", 2),)),
                round_timeout=1.0,
                max_inflight=1,
            ) as service:
                return service, [
                    await service.submit_and_wait("S", value)
                    for value in ("v0", "v1", "v2")
                ]

        service, outcomes = run_on_virtual_clock(scenario())
        assert service.aggregate_metrics.endpoint_restarts == 1
        for value, outcome in zip(("v0", "v1", "v2"), outcomes):
            assert outcome.decisions["p2"] == value
            assert outcome.metrics.total_timeouts == 0

    def test_a_tcp_endpoint_restart_leaves_the_node_serving(self):
        """The same over real sockets: the chaos restart goes through
        ``TcpTransport.restart_endpoint`` (new server, new port) and the
        node's pump hears the frames that reach the new port."""

        async def scenario():
            async with AgreementService(
                SPEC, NODES,
                transport=TcpTransport(),
                chaos=ChaosPolicy(restarts=(EndpointRestart("p2", 2),)),
                round_timeout=0.5,
                max_inflight=1,
            ) as service:
                return [
                    await service.submit_and_wait("S", value)
                    for value in ("v0", "v1")
                ]

        for value, outcome in zip(("v0", "v1"), asyncio.run(scenario())):
            assert outcome.decisions["p2"] == value
            assert outcome.metrics.total_timeouts == 0

    def test_restart_unknown_node_rejected(self):
        async def scenario():
            async with AgreementService(SPEC, NODES) as service:
                with pytest.raises(ConfigurationError):
                    await service.restart_node("ghost")

        asyncio.run(scenario())

    def test_mux_restart_requires_running_mux(self):
        async def scenario():
            mux = InstanceMux(LocalBus(), NODES)
            with pytest.raises(TransportError):
                await mux.restart_node("p1")

        asyncio.run(scenario())
