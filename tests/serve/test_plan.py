"""Serving the seeded plan: backpressure and the synchronous cross-check."""

import asyncio

from repro.core.scenario import Instance
from repro.serve import (
    AgreementService,
    plan_workload,
    serve_plan,
)
from repro.serve.plan import VALUES, divergence_check


def check_divergence(spec, nodes, outcomes):
    """:func:`divergence_check` over *outcomes*: the diverging instance
    ids, sorted."""
    diverges = divergence_check(spec, nodes)
    return [
        outcome.instance_id
        for outcome in sorted(outcomes, key=lambda o: o.instance_id)
        if diverges(outcome)
    ]

NODES = Instance(1, 2, 5).nodes()


class TestWorkloadPlan:
    def test_same_seed_same_plan(self):
        assert plan_workload(NODES, 24, 99) == plan_workload(NODES, 24, 99)

    def test_different_seed_different_plan(self):
        assert plan_workload(NODES, 24, 1) != plan_workload(NODES, 24, 2)

    def test_plan_covers_all_senders_with_known_values(self):
        plan = plan_workload(NODES, 20, 5)
        assert len(plan) == 20
        senders = {sender for sender, _ in plan}
        assert senders == set(NODES)  # round-robin hits every node
        assert all(value in VALUES for _, value in plan)


class TestOnePlanOneCrossCheck:
    """``serve_plan`` submits the seeded plan, in order, and
    ``check_divergence`` holds every decision to the synchronous engine."""

    def test_serve_plan_submits_the_plan(self, monkeypatch):
        submitted = {}
        submit = AgreementService.submit

        def spy(self, sender, value, *args, **kwargs):
            iid = submit(self, sender, value, *args, **kwargs)
            submitted[iid] = (sender, value)
            return iid

        monkeypatch.setattr(AgreementService, "submit", spy)
        plan = plan_workload(NODES, 12, 41)
        assert {sender for sender, _ in plan} == set(NODES)
        _, outcomes = asyncio.run(serve_plan(Instance(1, 2, 5), 12, 41))
        assert [submitted[o.instance_id] for o in outcomes] == plan
        assert [(o.sender, o.sender_value) for o in outcomes] == plan

    def test_cross_check_passes_clean_and_flags_a_tampered_decision(self):
        instance = Instance(1, 2, 5)
        spec, nodes = instance.spec(), instance.nodes()
        _, outcomes = asyncio.run(serve_plan(instance, 6, 3))
        by_id = {o.instance_id: o for o in outcomes}
        assert check_divergence(spec, nodes, outcomes) == []
        assert check_divergence(spec, nodes, by_id.values()) == []

        outcomes[4].result.decisions["p2"] = "forged"
        assert check_divergence(spec, nodes, outcomes) == ["i0004"]
        assert check_divergence(spec, nodes, by_id.values()) == ["i0004"]


class TestBackpressure:
    """A plan larger than the admission bound waits out ``retry_after``
    instead of failing on the first rejected submit."""

    def test_plan_past_the_admission_bound_is_decided_in_order(self):
        instance = Instance(1, 2, 5)
        service, outcomes = asyncio.run(serve_plan(
            instance, 12, 41, max_inflight=2, queue_limit=2
        ))
        assert len(outcomes) == 12
        assert [(o.sender, o.sender_value) for o in outcomes] == (
            plan_workload(instance.nodes(), 12, 41)
        )
        assert [o.instance_id for o in outcomes] == [
            f"i{index:04d}" for index in range(12)
        ]
        assert service.rejected_submits > 0
        assert check_divergence(
            instance.spec(), instance.nodes(), outcomes
        ) == []
