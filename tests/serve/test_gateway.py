"""AgreementService: admission control, outcomes, per-instance chaos tiers."""

import asyncio
import random

import pytest

from repro.core.spec import DegradableSpec
from repro.exceptions import AdmissionError, ConfigurationError
from repro.explore.clock import run_on_virtual_clock
from repro.net.chaos import ChaosPolicy
from repro.net.transport import LocalBus
from repro.serve import AgreementService, record_service_run

SPEC = DegradableSpec(m=1, u=2, n_nodes=5)
NODES = ("S", "p1", "p2", "p3", "p4")


def run(coro):
    return asyncio.run(coro)


class TestBasicService:
    def test_clean_instances_decide_and_satisfy_tier(self):
        async def scenario():
            async with AgreementService(
                SPEC, NODES, round_timeout=2.0
            ) as service:
                iids = [
                    service.submit("S", "attack"),
                    service.submit("p1", "retreat"),
                ]
                return [await service.decision(iid) for iid in iids]

        outcomes = run(scenario())
        for outcome in outcomes:
            assert outcome.ok
            assert outcome.tier == "byzantine"
            assert set(outcome.decisions) == set(NODES) - {outcome.sender}
            assert set(outcome.decisions.values()) == {outcome.sender_value}
            assert outcome.latency > 0.0

    def test_instance_ids_are_fresh_and_single_use(self):
        async def scenario():
            async with AgreementService(
                SPEC, NODES, round_timeout=2.0
            ) as service:
                a = service.submit("S", "attack")
                b = service.submit("S", "retreat")
                assert a != b
                with pytest.raises(ConfigurationError, match="single-use"):
                    service.submit("S", "hold", instance_id=a)
                await service.decision(a)
                await service.decision(b)

        run(scenario())

    def test_submit_before_start_rejected(self):
        async def scenario():
            service = AgreementService(SPEC, NODES)
            with pytest.raises(AdmissionError, match="not running"):
                service.submit("S", "attack")

        run(scenario())

    def test_unknown_sender_rejected(self):
        async def scenario():
            async with AgreementService(SPEC, NODES) as service:
                with pytest.raises(ConfigurationError, match="node set"):
                    service.submit("nobody", "attack")

        run(scenario())

    def test_unknown_instance_decision_rejected(self):
        async def scenario():
            async with AgreementService(SPEC, NODES) as service:
                with pytest.raises(ConfigurationError, match="not submitted"):
                    await service.decision("ghost")

        run(scenario())

    def test_wrong_node_count_rejected(self):
        with pytest.raises(ConfigurationError, match="distinct nodes"):
            AgreementService(SPEC, ("S", "p1", "p2"))

    def test_outcomes_fold_into_aggregate_metrics(self):
        async def scenario():
            async with AgreementService(
                SPEC, NODES, round_timeout=2.0
            ) as service:
                await service.submit_and_wait("S", "attack")
                await service.submit_and_wait("p1", "retreat")
                return service.aggregate_metrics.counters()

        counters = run(scenario())
        inst_keys = [k for k in counters if k.startswith("inst.")]
        assert len({k.split(".")[1] for k in inst_keys}) == 2
        # Every instance moved real frames over the shared wire.
        frames_by_instance = {}
        for key, value in counters.items():
            if key.startswith("inst.") and key.endswith(".frames_sent"):
                iid = key.split(".")[1]
                frames_by_instance[iid] = frames_by_instance.get(iid, 0) + value
        assert len(frames_by_instance) == 2
        assert all(total > 0 for total in frames_by_instance.values())


class TestAdmissionControl:
    def test_submit_beyond_bound_rejected_with_retry_hint(self):
        async def scenario():
            async with AgreementService(
                SPEC,
                NODES,
                max_inflight=1,
                queue_limit=1,
                round_timeout=2.0,
            ) as service:
                first = service.submit("S", "attack")
                second = service.submit("S", "retreat")
                with pytest.raises(AdmissionError) as excinfo:
                    service.submit("S", "hold")
                hint = excinfo.value.retry_after
                rejected = service.rejected_submits
                # Admitted instances still finish normally.
                await service.decision(first)
                await service.decision(second)
                return hint, rejected

        hint, rejected = run(scenario())
        assert hint > 0.0
        assert rejected == 1

    def test_slots_free_up_as_instances_finish(self):
        async def scenario():
            async with AgreementService(
                SPEC,
                NODES,
                max_inflight=1,
                queue_limit=0,
                round_timeout=2.0,
            ) as service:
                iid = service.submit("S", "attack")
                with pytest.raises(AdmissionError):
                    service.submit("S", "retreat")
                await service.decision(iid)
                # The finished instance released its slot.
                iid2 = service.submit("S", "retreat")
                outcome = await service.decision(iid2)
                return outcome.ok

        assert run(scenario())

    def test_retry_after_tracks_observed_latency(self):
        async def scenario():
            async with AgreementService(
                SPEC, NODES, round_timeout=3.0
            ) as service:
                before = service.retry_after_hint()
                await service.submit_and_wait("S", "attack")
                after = service.retry_after_hint()
                return before, after

        before, after = run(scenario())
        # No data yet: the hint falls back to the round deadline budget,
        # clamped into [0.01s, 1s] so a generous deadline does not turn
        # into a punitive first-client backoff.
        assert before == 1.0
        # With one observation the hint is that instance's actual latency,
        # far below the worst-case deadline.
        assert 0.0 < after < before

    def test_retry_after_warm_path_clamped_like_cold_path(self):
        # Regression: the warm path (latency history present) used to be
        # max(0.01, avg) with no upper bound, so a run of slow instances
        # (ones riding out round deadlines, say) told rejected clients to
        # go away for tens of seconds.  Both branches now share [0.01s, 1s].
        async def scenario():
            async with AgreementService(
                SPEC, NODES, round_timeout=3.0
            ) as service:
                await service.submit_and_wait("S", "attack")
                # Poison the history with pathological latencies the way a
                # campaign of wedged instances would.
                service._latencies.extend([30.0] * 8)
                slow = service.retry_after_hint()
                service._latencies.clear()
                service._latencies.extend([1e-9] * 8)
                fast = service.retry_after_hint()
                return slow, fast

        slow, fast = run(scenario())
        assert slow == 1.0   # upper clamp (was 26.7s before the fix)
        assert fast == 0.01  # lower clamp survives on the warm path too

    def test_latency_history_is_bounded_by_the_window_the_hint_reads(self):
        # Regression: one float per served instance was kept forever while
        # the hint only ever read the last 32.
        policy = ChaosPolicy(
            latency_probability=0.5, latency=(0.01, 0.05), seed=5
        )

        async def scenario():
            async with AgreementService(
                SPEC, NODES, chaos=policy, round_timeout=5.0
            ) as service:
                for _ in range(100):
                    await service.submit_and_wait("S", "attack")
                served = [o.latency for o in service.outcomes.values()]
                return served, list(service._latencies), service.retry_after_hint()

        served, kept, hint = run_on_virtual_clock(scenario())
        assert len(served) == 100 and kept == served[-32:]
        assert sum(served[:32]) != sum(kept)  # the window moved
        assert 0.01 < hint == sum(kept) / 32 < 1.0


class TestChaosAccounting:
    def test_per_instance_fault_attribution_differs_across_instances(self):
        # One seeded drop-chaos adversary below the mux: different
        # instances lose different frames, so each must be judged against
        # ITS OWN afflicted set — the union would put every instance in
        # the same (wrong) tier.
        policy = ChaosPolicy(drop_probability=0.12, seed=11)

        async def scenario():
            service = AgreementService(
                SPEC,
                NODES,
                transport=LocalBus(),
                chaos=policy,
                chaos_rng=random.Random(11),
                round_timeout=0.3,
            )
            async with service:
                iids = [
                    service.submit(NODES[i % len(NODES)], "attack")
                    for i in range(8)
                ]
                outcomes = [await service.decision(iid) for iid in iids]
            return outcomes

        outcomes = run(scenario())
        afflicted_sets = {frozenset(o.afflicted) for o in outcomes}
        assert len(afflicted_sets) > 1, (
            "drop chaos hit every instance identically; accounting is "
            "suspiciously global"
        )
        for outcome in outcomes:
            assert outcome.tier == SPEC.guarantee_for(len(outcome.afflicted))

    def test_decision_preserving_chaos_keeps_all_instances_ok(self):
        # Duplication + sub-deadline latency never changes a decision
        # (relay stores are idempotent), so every instance must still
        # satisfy full Byzantine agreement.
        policy = ChaosPolicy(
            duplicate_probability=0.3,
            latency_probability=0.3,
            latency=(0.0001, 0.002),
            seed=7,
        )

        async def scenario():
            service = AgreementService(
                SPEC,
                NODES,
                chaos=policy,
                chaos_rng=random.Random(7),
                round_timeout=1.0,
            )
            async with service:
                iids = [service.submit("S", "attack") for _ in range(6)]
                return [await service.decision(iid) for iid in iids]

        for outcome in run(scenario()):
            assert outcome.ok
            assert set(outcome.decisions.values()) == {"attack"}


class TestServiceRecord:
    def test_record_requires_finished_instances(self):
        service = AgreementService(SPEC, NODES)
        with pytest.raises(ConfigurationError, match="no finished"):
            record_service_run(service)

    def test_record_lists_every_instance(self):
        async def scenario():
            async with AgreementService(
                SPEC, NODES, round_timeout=2.0
            ) as service:
                for sender, value in (("S", "attack"), ("p2", "hold")):
                    await service.submit_and_wait(sender, value)
                return record_service_run(service)

        record = run(scenario())
        assert record.mode == "serve"
        listed = {e["id"]: e for e in record.meta["instances"]}
        assert len(listed) == 2
        assert {e["sender"] for e in listed.values()} == {"S", "p2"}
        assert record.trace.instance_ids() == tuple(sorted(listed))
