"""Assumption (b) — detectable absence — across both runtimes.

Section 4 assumes "the absence of a message can be detected", resolved by
substituting ``V_d``.  The synchronous engine realizes absence as a message
dropped in flight (omission injector); the async runtime realizes it as a
missed round deadline (a wire-muted node whose end-of-round markers never
arrive).  One shared parametrized grid pins down that both realizations
produce the same substitution counts, the same per-receiver decisions and
the same D.1–D.4 verdicts — the paper's abstraction and its real-wire
implementation are interchangeable.
"""

import asyncio

import pytest

from repro.core.conditions import classify
from repro.core.protocol import execute_degradable_protocol
from repro.core.spec import DegradableSpec
from repro.core.values import DEFAULT
from repro.net import (
    ChaosPolicy,
    LocalBus,
    Partition,
    partition_injector,
    run_agreement_async,
)
from repro.sim.faults import CrashInjector, OmissionInjector

from tests.conftest import node_names

VALUE = "engage"

#: (id, m, u, N, omitting nodes) — sender-omission, receiver-omission,
#: multi-omission in the degraded band, and the m = 0 special case.
GRID = [
    pytest.param(1, 2, 5, frozenset({"S"}), id="sender-omits-1-2"),
    pytest.param(1, 2, 5, frozenset({"p1"}), id="receiver-omits-1-2"),
    pytest.param(1, 2, 5, frozenset({"p1", "p2"}), id="degraded-omits-1-2"),
    pytest.param(1, 2, 6, frozenset({"p1"}), id="receiver-omits-roomy"),
    pytest.param(0, 3, 5, frozenset({"S"}), id="sender-omits-m0"),
    pytest.param(2, 3, 8, frozenset({"p1"}), id="receiver-omits-2-3"),
]


def _sync_omission(spec, nodes, omitting):
    result, _ = execute_degradable_protocol(
        spec, nodes, "S", VALUE,
        extra_injectors=[OmissionInjector.from_sources(omitting)],
    )
    return result


def _async_timeout(spec, nodes, omitting):
    outcome = asyncio.run(
        run_agreement_async(
            spec, nodes, "S", VALUE,
            transport=LocalBus(),
            extra_injectors=[CrashInjector(omitting)],
            round_timeout=0.4,
        )
    )
    return outcome


@pytest.mark.parametrize("m, u, n, omitting", GRID)
def test_sync_omission_equals_async_timeout(m, u, n, omitting):
    spec = DegradableSpec(m=m, u=u, n_nodes=n)
    nodes = node_names(n)

    sync_result = _sync_omission(spec, nodes, omitting)
    outcome = _async_timeout(spec, nodes, omitting)
    async_result = outcome.result

    # Both paths actually exercised substitution, and agree on how much.
    assert sync_result.stats.substitutions > 0
    assert async_result.stats.substitutions == sync_result.stats.substitutions
    # The async path detected the absence through genuine deadline expiry.
    assert outcome.metrics.total_timeouts > 0

    assert async_result.decisions == sync_result.decisions
    sync_report = classify(sync_result, omitting, spec)
    async_report = classify(async_result, omitting, spec)
    for attribute in ("regime", "shape", "satisfied", "d1", "d2", "d3", "d4"):
        assert getattr(async_report, attribute) == getattr(
            sync_report, attribute
        ), attribute
    assert sync_report.satisfied


class TestPartitionHeal:
    """A link severed for exactly one round, then healed — the chaos
    layer's scheduled partition against the sync engine's rendition of the
    same cut (:func:`partition_injector`).  Only the severed relay is lost,
    so only that relay's slot resolves to ``V_d``; once the link heals the
    protocols are indistinguishable again."""

    SPEC = dict(m=1, u=2, n_nodes=5)
    #: p1 -> p2 severed during engine round 2 only.
    PARTITION = Partition.sever_links([("p1", "p2")], 2, 3)

    def test_async_partition_equals_sync_injector(self):
        spec = DegradableSpec(**self.SPEC)
        nodes = node_names(spec.n_nodes)

        sync_result, _ = execute_degradable_protocol(
            spec, nodes, "S", VALUE,
            extra_injectors=[partition_injector(self.PARTITION)],
        )
        outcome = asyncio.run(
            run_agreement_async(
                spec, nodes, "S", VALUE,
                transport=LocalBus(),
                round_timeout=0.4,
                chaos=ChaosPolicy(partitions=(self.PARTITION,)),
            )
        )
        async_result = outcome.result

        # Exactly the severed relay was substituted, on both paths.
        assert sync_result.stats.substitutions == 1
        assert async_result.stats.substitutions == 1
        # The async path detected the absence through genuine deadline expiry.
        assert outcome.metrics.total_timeouts > 0
        assert outcome.chaos.counts()["partition"] >= 1
        assert outcome.chaos.afflicted == frozenset({"p1"})

        assert async_result.decisions == sync_result.decisions
        afflicted = frozenset({"p1"})
        sync_report = classify(sync_result, afflicted, spec)
        async_report = classify(async_result, afflicted, spec)
        for attribute in ("regime", "shape", "satisfied",
                          "d1", "d2", "d3", "d4"):
            assert getattr(async_report, attribute) == getattr(
                sync_report, attribute
            ), attribute
        assert sync_report.satisfied

    def test_healed_rounds_carry_traffic(self):
        """The cut is one round wide: rounds before and after it deliver
        normally, so the damage stays bounded to one relay slot."""
        spec = DegradableSpec(**self.SPEC)
        nodes = node_names(spec.n_nodes)

        outcome = asyncio.run(
            run_agreement_async(
                spec, nodes, "S", VALUE,
                transport=LocalBus(),
                round_timeout=0.4,
                chaos=ChaosPolicy(partitions=(self.PARTITION,)),
            )
        )
        severed = [
            e for e in outcome.chaos.events if e.kind == "partition"
        ]
        assert severed
        assert {e.round_no for e in severed} == {2}
        assert all(
            (e.source, e.destination) == ("p1", "p2") for e in severed
        )


@pytest.mark.parametrize("m, u, n, omitting", GRID[:3])
def test_omission_decisions_stay_in_two_classes(m, u, n, omitting):
    """Omissions never create fabricated values — only V_d degradation."""
    spec = DegradableSpec(m=m, u=u, n_nodes=n)
    nodes = node_names(n)
    result = _sync_omission(spec, nodes, omitting)
    for node, value in result.decisions.items():
        if node in omitting:
            continue
        assert value == VALUE or value is DEFAULT, (node, value)
