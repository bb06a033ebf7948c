"""ChaosTransport unit tests: every misbehaviour, deterministic by seed.

Each test pins one chaos mechanism in isolation by building a policy where
only that mechanism can fire (probability 1.0 or a scheduled fault), so the
assertions do not depend on lucky draws.
"""

import asyncio
import random

import pytest

from repro.core.spec import DegradableSpec
from repro.exceptions import ConfigurationError
from repro.explore.clock import run_on_virtual_clock
from repro.net.chaos import (
    ChaosPolicy,
    ChaosTransport,
    Crash,
    Partition,
    make_policy,
)
from repro.net.codec import DATA, MARK, Frame
from repro.net.metrics import NetMetrics
from repro.net.transport import LocalBus
from repro.sim.messages import Message, RelayPayload
from repro.verify.fuzz import FuzzCase, run_case_async

NODES = ["S", "p1", "p2", "p3"]


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


def mark_frame(source="S", destination="p1", round_no=1):
    return Frame(
        kind=MARK, round_no=round_no, source=source, destination=destination,
    )


def chaos_over_bus(policy, seed=7):
    chaos = ChaosTransport(LocalBus(), policy, rng=random.Random(seed))
    chaos.attach_metrics(NetMetrics(transport=chaos.name))
    return chaos


async def drain(transport, node, limit=10):
    """Collect every frame already queued for *node* (non-blocking)."""
    out = []
    for _ in range(limit):
        try:
            out.append(await asyncio.wait_for(transport.recv(node), timeout=0.05))
        except asyncio.TimeoutError:
            break
    return out


class TestQuietPolicy:
    def test_passes_frames_through_untouched(self):
        async def scenario():
            chaos = chaos_over_bus(ChaosPolicy())
            await chaos.open(NODES)
            frame = data_frame()
            await chaos.send(frame)
            received = await chaos.recv("p1")
            await chaos.close()
            return frame, received, chaos.log

        frame, received, log = asyncio.run(scenario())
        assert received is frame  # LocalBus zero-copy survives the wrapper
        assert len(log) == 0
        assert log.f_eff == 0

    def test_is_quiet_flag(self):
        assert ChaosPolicy().is_quiet
        assert not ChaosPolicy(drop_probability=0.1).is_quiet
        assert not ChaosPolicy(
            crashes=(Crash(node="p1", at_round=1),)
        ).is_quiet


class TestDrop:
    def test_certain_drop_charges_source(self):
        async def scenario():
            chaos = chaos_over_bus(ChaosPolicy(drop_probability=1.0))
            await chaos.open(NODES)
            await chaos.send(data_frame(source="p2", destination="p1"))
            got = await drain(chaos, "p1")
            await chaos.close()
            return got, chaos.log, chaos.metrics

        got, log, metrics = asyncio.run(scenario())
        assert got == []
        assert log.counts()["drop"] == 1
        assert log.afflicted == frozenset({"p2"})
        assert metrics.total_chaos_drops == 1

    def test_markers_are_immune_to_probabilistic_loss(self):
        async def scenario():
            chaos = chaos_over_bus(ChaosPolicy(drop_probability=1.0))
            await chaos.open(NODES)
            await chaos.send(mark_frame())
            got = await drain(chaos, "p1")
            await chaos.close()
            return got

        got = asyncio.run(scenario())
        assert [f.kind for f in got] == [MARK]


class TestDuplicate:
    def test_certain_duplication_delivers_twice_charges_nobody(self):
        async def scenario():
            chaos = chaos_over_bus(ChaosPolicy(duplicate_probability=1.0))
            await chaos.open(NODES)
            await chaos.send(data_frame())
            got = await drain(chaos, "p1")
            await chaos.close()
            return got, chaos.log

        got, log = asyncio.run(scenario())
        assert len(got) == 2
        assert got[0].message == got[1].message
        assert log.counts()["dup"] == 1
        assert log.f_eff == 0  # duplication is benign


class TestReorder:
    def test_two_frames_swap_on_one_link(self):
        async def scenario():
            chaos = chaos_over_bus(ChaosPolicy(reorder_probability=1.0))
            await chaos.open(NODES)
            first = data_frame(value="one")
            second = data_frame(value="two")
            await chaos.send(first)   # held back
            await chaos.send(second)  # swaps: second out first
            got = await drain(chaos, "p1")
            await chaos.close()
            return [f.message.payload.value for f in got], chaos.log

        values, log = asyncio.run(scenario())
        assert values == ["two", "one"]
        assert log.counts()["reorder"] == 2
        assert log.f_eff == 0  # in-round reorder is benign

    def test_marker_flushes_held_frame_first(self):
        """A reordered frame never silently misses its round: the MARK that
        fences the round pushes it out ahead of itself."""

        async def scenario():
            chaos = chaos_over_bus(ChaosPolicy(reorder_probability=1.0))
            await chaos.open(NODES)
            await chaos.send(data_frame(value="held"))
            await chaos.send(mark_frame())
            got = await drain(chaos, "p1")
            await chaos.close()
            return got

        got = asyncio.run(scenario())
        assert [f.kind for f in got] == [DATA, MARK]
        assert got[0].message.payload.value == "held"

    def test_frame_held_at_close_is_charged_as_drop(self):
        async def scenario():
            chaos = chaos_over_bus(ChaosPolicy(reorder_probability=1.0))
            await chaos.open(NODES)
            await chaos.send(data_frame(source="p3", destination="p1"))
            await chaos.close()
            return chaos.log

        log = asyncio.run(scenario())
        assert log.counts()["drop"] == 1
        assert log.afflicted == frozenset({"p3"})


class TestLatency:
    """A drawn delay that would outlive its frame's round is that frame's
    absence: charged to its source as a drop, neither slept nor sent."""

    @staticmethod
    async def delayed(deadline_in):
        chaos = chaos_over_bus(
            ChaosPolicy(latency_probability=1.0, latency=(0.01, 0.01))
        )
        await chaos.open(NODES)
        loop = asyncio.get_running_loop()
        chaos.round_opened(1, loop.time() + deadline_in)
        started = loop.time()
        await chaos.send(data_frame(source="p2", destination="p1"))
        waited = loop.time() - started
        got = chaos.recv_nowait("p1")
        await chaos.close()
        return waited, got, chaos.log

    def test_a_delay_inside_the_round_is_slept_and_delivered(self):
        waited, got, log = run_on_virtual_clock(self.delayed(0.5))
        assert waited == pytest.approx(0.01)
        assert got is not None
        assert log.counts()["delay"] == 1 and log.f_eff == 0

    @pytest.mark.parametrize("deadline_in", [0.01, 0.005])
    def test_a_delay_reaching_the_deadline_is_a_charged_drop(self, deadline_in):
        waited, got, log = run_on_virtual_clock(self.delayed(deadline_in))
        assert waited == 0 and got is None
        assert log.counts()["drop"] == 1 and log.counts()["delay"] == 0
        assert log.afflicted == {"p2"}

    def test_heavy_seeds_at_a_tight_deadline_assert_their_true_tier(self):
        # Each drawn delay is a large share of a 2 ms round, so 21 of
        # these 40 seeds draw a delay that outlives its round: unless that
        # absence is charged, f_eff is too low and TIER_D1 is asserted.
        failed = [
            seed
            for seed in range(40)
            if not run_on_virtual_clock(
                run_case_async(
                    FuzzCase(
                        1, 2, 5, chaos_severity="heavy", chaos_seed=seed,
                        timeout=0.002, transport="local",
                    )
                )
            ).ok
        ]
        assert failed == []


class TestCorrupt:
    def test_corruption_over_localbus_is_absence(self):
        """Object-passing transports have no bytes to mangle; the default
        ``send_corrupted`` realizes corruption as loss — same observable."""

        async def scenario():
            chaos = chaos_over_bus(ChaosPolicy(corrupt_probability=1.0))
            await chaos.open(NODES)
            await chaos.send(data_frame(source="p2", destination="p1"))
            got = await drain(chaos, "p1")
            await chaos.close()
            return got, chaos.log, chaos.metrics

        got, log, metrics = asyncio.run(scenario())
        assert got == []
        assert log.counts()["corrupt"] == 1
        assert log.afflicted == frozenset({"p2"})
        assert metrics.total_chaos_corruptions == 1


class TestPartition:
    def test_window_severs_then_heals(self):
        partition = Partition.split(["p1"], ["S", "p2", "p3"], 2, 3)
        policy = ChaosPolicy(partitions=(partition,))

        async def scenario():
            chaos = chaos_over_bus(policy)
            await chaos.open(NODES)
            await chaos.send(data_frame(round_no=1))            # before: passes
            await chaos.send(data_frame(round_no=2))            # severed
            await chaos.send(mark_frame(round_no=2))            # MARK severed too
            await chaos.send(data_frame(round_no=3))            # healed: passes
            got = await drain(chaos, "p1")
            await chaos.close()
            return [f.round_no for f in got], chaos.log

        rounds, log = asyncio.run(scenario())
        assert rounds == [1, 3]
        assert log.counts()["partition"] == 2
        # Charged to the smaller side of the cut.
        assert log.afflicted == frozenset({"p1"})

    def test_split_links_are_bidirectional_and_inside_traffic_flows(self):
        partition = Partition.split(["p1"], ["S", "p2", "p3"], 1, 2)
        assert ("p1", "S") in partition.links
        assert ("S", "p1") in partition.links
        assert ("p2", "p3") not in partition.links

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ConfigurationError):
            Partition.split(["p1"], ["p1", "p2"], 1, 2)

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            Partition.split(["p1"], ["p2"], 2, 2)


class TestCrash:
    def test_dark_node_loses_both_directions(self):
        policy = ChaosPolicy(crashes=(Crash(node="p1", at_round=1),))

        async def scenario():
            chaos = chaos_over_bus(policy)
            await chaos.open(NODES)
            await chaos.send(data_frame(source="S", destination="p1"))
            await chaos.send(data_frame(source="p1", destination="p2"))
            await chaos.send(data_frame(source="S", destination="p2"))
            got_p1 = await drain(chaos, "p1")
            got_p2 = await drain(chaos, "p2")
            await chaos.close()
            return got_p1, got_p2, chaos.log

        got_p1, got_p2, log = asyncio.run(scenario())
        assert got_p1 == []
        assert len(got_p2) == 1 and got_p2[0].source == "S"
        assert log.counts()["crash"] == 2
        assert log.afflicted == frozenset({"p1"})

    def test_restart_brings_the_endpoint_back(self):
        policy = ChaosPolicy(
            crashes=(Crash(node="p1", at_round=1, restart_round=2),)
        )

        async def scenario():
            chaos = chaos_over_bus(policy)
            await chaos.open(NODES)
            await chaos.send(data_frame(round_no=1))  # dark
            await chaos.send(data_frame(round_no=2))  # restarted
            got = await drain(chaos, "p1")
            await chaos.close()
            return [f.round_no for f in got]

        assert asyncio.run(scenario()) == [2]

    def test_restart_must_follow_crash(self):
        with pytest.raises(ConfigurationError):
            Crash(node="p1", at_round=3, restart_round=3)


class TestAccountingBridge:
    def test_f_eff_selects_the_tier(self):
        spec = DegradableSpec(m=1, u=2, n_nodes=5)
        assert spec.guarantee_for(0) == "byzantine"
        assert spec.guarantee_for(1) == "byzantine"
        assert spec.guarantee_for(2) == "degraded"
        assert spec.guarantee_for(3) == "none"

    def test_make_policy_rejects_unknown_severity(self):
        spec = DegradableSpec(m=1, u=2, n_nodes=5)
        with pytest.raises(ConfigurationError):
            make_policy("apocalypse", spec, NODES, random.Random(0))

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosPolicy(drop_probability=1.5)
        with pytest.raises(ConfigurationError):
            ChaosPolicy(latency=(0.2, 0.1))
