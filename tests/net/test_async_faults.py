"""Fault injection over the async path: one injector contract, wire mutes.

Drop / corrupt / two-faced faults must work over real transports exactly as
they do in the simulator, and a node muted at the wire level must be
resolved by the round deadline — a genuine timeout substituting ``V_d``.
The protocol half of a round is the synchronous engine's ``emit`` in both
runtimes; :class:`TestOneRoundBothRuntimes` pins that from both sides.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.core.behavior import TwoFacedBehavior
from repro.core.conditions import classify
from repro.core.protocol import execute_degradable_protocol
from repro.core.values import DEFAULT
from repro.exceptions import SimulationError
from repro.net import (
    AsyncRoundRunner,
    LocalBus,
    TcpTransport,
    run_agreement_async,
)
from repro.sim.faults import CrashInjector, MessageCorruptor, OmissionInjector
from repro.sim.messages import RelayPayload
from repro.sim.trace import EventKind, event_to_json

from tests.conftest import node_names

VALUE = "engage"
TIMEOUT = 0.4


def _run(spec, nodes, transport, **kwargs):
    return asyncio.run(
        run_agreement_async(
            spec, nodes, "S", VALUE, transport=transport,
            round_timeout=TIMEOUT, **kwargs
        )
    )


class TestMutedNodeTimesOut:
    """A wire-crashed node is detected by the deadline, not by a marker."""

    @pytest.mark.parametrize("transport_factory", [LocalBus, TcpTransport])
    def test_muted_receiver_equals_sync_omission(
        self, spec_1_2, transport_factory
    ):
        nodes = node_names(5)
        outcome = _run(
            spec_1_2, nodes, transport_factory(),
            extra_injectors=[CrashInjector({"p1"})],
        )
        sync_result, _ = execute_degradable_protocol(
            spec_1_2, nodes, "S", VALUE,
            extra_injectors=[OmissionInjector.from_sources({"p1"})],
        )
        assert outcome.result.decisions == sync_result.decisions
        assert outcome.result.stats.substitutions == (
            sync_result.stats.substitutions
        )
        # Every round, every other node waited out p1's missing marker.
        assert outcome.metrics.total_timeouts > 0
        report = classify(outcome.result, {"p1"}, spec_1_2)
        assert report.satisfied

    def test_muted_sender_decides_default_everywhere(self, spec_1_2):
        nodes = node_names(5)
        outcome = _run(
            spec_1_2, nodes, LocalBus(), extra_injectors=[CrashInjector({"S"})]
        )
        assert all(
            value is DEFAULT for value in outcome.result.decisions.values()
        )
        report = classify(outcome.result, {"S"}, spec_1_2)
        assert report.satisfied and report.d2 is True

    def test_mute_beyond_u_can_only_degrade_to_default(self, spec_1_2):
        """Even past the fault bound, timeouts only ever produce V_d."""
        nodes = node_names(5)
        outcome = _run(
            spec_1_2, nodes, LocalBus(),
            extra_injectors=[CrashInjector({"p1", "p2", "p3"})],
        )
        for value in outcome.result.decisions.values():
            assert value == VALUE or value is DEFAULT


class TestLiftedInjectors:
    def test_omission_injector_over_local_bus(self, spec_1_2):
        """Lifted omissions drop frames but markers still close the round."""
        nodes = node_names(5)
        outcome = _run(
            spec_1_2, nodes, LocalBus(),
            extra_injectors=[OmissionInjector.from_sources({"p1"})],
        )
        sync_result, _ = execute_degradable_protocol(
            spec_1_2, nodes, "S", VALUE,
            extra_injectors=[OmissionInjector.from_sources({"p1"})],
        )
        assert outcome.result.decisions == sync_result.decisions
        # No marker was muted, so no deadline was ridden out.
        assert outcome.metrics.total_timeouts == 0
        assert outcome.metrics.total_dropped > 0

    def test_link_omission_over_tcp(self, spec_1_2):
        nodes = node_names(5)
        links = {("S", "p1")}
        outcome = _run(
            spec_1_2, nodes, TcpTransport(),
            extra_injectors=[OmissionInjector.for_links(links)],
        )
        sync_result, _ = execute_degradable_protocol(
            spec_1_2, nodes, "S", VALUE,
            extra_injectors=[OmissionInjector.for_links(links)],
        )
        assert outcome.result.decisions == sync_result.decisions
        assert outcome.result.stats.substitutions > 0

    def test_corruptor_over_tcp(self, spec_1_2):
        """A payload corruptor works over sockets like in the simulator."""
        nodes = node_names(5)

        def corrupt(message):
            payload = message.payload
            return message.with_payload(
                RelayPayload(payload.path, "corrupted")
            )

        injector = MessageCorruptor(
            matches=lambda _round, msg: (
                isinstance(msg.payload, RelayPayload)
                and msg.source == "p1"
            ),
            transform=corrupt,
        )
        outcome = _run(
            spec_1_2, nodes, TcpTransport(), extra_injectors=[injector]
        )
        sync_result, _ = execute_degradable_protocol(
            spec_1_2, nodes, "S", VALUE, extra_injectors=[injector]
        )
        assert outcome.result.decisions == sync_result.decisions
        report = classify(outcome.result, {"p1"}, spec_1_2)
        assert report.satisfied

    def test_two_faced_behavior_over_tcp(self, spec_1_2):
        """The canonical Byzantine attack, carried over real sockets."""
        nodes = node_names(5)
        behaviors = {
            "p1": TwoFacedBehavior({"p2": "x", "p3": "y", "p4": "z"})
        }
        outcome = _run(
            spec_1_2, nodes, TcpTransport(), behaviors=dict(behaviors)
        )
        sync_result, _ = execute_degradable_protocol(
            spec_1_2, nodes, "S", VALUE, behaviors
        )
        assert outcome.result.decisions == sync_result.decisions
        report = classify(outcome.result, {"p1"}, spec_1_2)
        assert report.satisfied and report.d1 is True


# ----------------------------------------------------------------------
# The shared round, pinned from both sides
# ----------------------------------------------------------------------
PROTOCOL_KINDS = {
    EventKind.SENT, EventKind.DELIVERED, EventKind.DROPPED,
    EventKind.CORRUPTED, EventKind.DECIDED, EventKind.DEFAULTED,
}


def _sync_runtime(spec, nodes, **faults):
    result, engine = execute_degradable_protocol(
        spec, nodes, "S", VALUE, **faults
    )
    return result, engine.trace, None


def _async_runtime(spec, nodes, **faults):
    outcome = _run(spec, nodes, LocalBus(), **faults)
    return outcome.result, outcome.trace, outcome.metrics


RUNTIMES = [
    pytest.param(_sync_runtime, id="execute_degradable_protocol"),
    pytest.param(_async_runtime, id="run_agreement_async"),
]


def _protocol_lines(trace):
    return [
        event_to_json(event)
        for event in trace.events
        if event.kind in PROTOCOL_KINDS
    ]


def _rewrite_p1(**fields):
    """An injector that rewrites a header field of everything p1 sends."""
    return MessageCorruptor(
        matches=lambda _round, msg: msg.source == "p1",
        transform=lambda msg: replace(msg, **fields),
    )


class TestOneRoundBothRuntimes:
    @pytest.mark.parametrize("runtime", RUNTIMES)
    @pytest.mark.parametrize(
        "fields,text",
        [
            ({"destination": "ghost"}, "message to unknown node 'ghost'"),
            ({"destination": "p1"}, "node 'p1' attempted to message itself"),
            (
                {"source": "p2"},
                "injector MessageCorruptor attempted to forge source 'p2' "
                "on a message from 'p1'",
            ),
        ],
        ids=["unknown-destination", "self-message", "forged-source"],
    )
    def test_assumption_c_breaches_raise_the_same_error(
        self, spec_1_2, runtime, fields, text
    ):
        """A replacement that leaves the model is an error, never a silent
        loss: same exception, same text, whichever runtime ran the round."""
        with pytest.raises(SimulationError) as caught:
            runtime(
                spec_1_2, node_names(5), extra_injectors=[_rewrite_p1(**fields)]
            )
        assert str(caught.value) == text

    def test_one_crash_description_drives_both_runtimes(self, spec_1_2):
        nodes = node_names(5)
        crash = {"extra_injectors": [CrashInjector({"p1"})]}
        sync_result, _, _ = _sync_runtime(spec_1_2, nodes, **crash)
        async_result, _, metrics = _async_runtime(spec_1_2, nodes, **crash)
        omission_result, _, _ = _sync_runtime(
            spec_1_2, nodes,
            extra_injectors=[OmissionInjector.from_sources({"p1"})],
        )
        assert async_result.decisions == sync_result.decisions
        assert async_result.stats.substitutions == sync_result.stats.substitutions
        # Only the wire has markers to mute and a deadline to ride out; on
        # the lock-step engine a crash is exactly a source omission.
        assert metrics.total_timeouts > 0
        assert sync_result.decisions == omission_result.decisions
        assert sync_result.stats == omission_result.stats

    def test_injector_order_is_list_order_on_both_runtimes(self, spec_1_2):
        """Two injectors that do not commute: corrupt the sender's value,
        and drop exactly the corrupted messages.  Corrupt-then-drop silences
        the sender (``V_d`` everywhere); drop-then-corrupt finds nothing to
        drop, so the corrupted value is decided."""
        nodes = node_names(5)
        corrupt = MessageCorruptor(
            matches=lambda _round, msg: msg.source == "S",
            transform=lambda msg: msg.with_payload(
                RelayPayload(msg.payload.path, "corrupted")
            ),
        )
        drop_corrupted = OmissionInjector(
            lambda _round, msg: msg.source == "S"
            and msg.payload.value == "corrupted"
        )
        seen = {}
        for label, chain in (
            ("corrupt-then-drop", [corrupt, drop_corrupted]),
            ("drop-then-corrupt", [drop_corrupted, corrupt]),
        ):
            sync_result, sync_trace, _ = _sync_runtime(
                spec_1_2, nodes, extra_injectors=chain
            )
            async_result, async_trace, _ = _async_runtime(
                spec_1_2, nodes, extra_injectors=chain
            )
            assert async_result.decisions == sync_result.decisions
            # Not merely the same line set: the same lines in the same
            # order, because the same code wrote them.
            lines = _protocol_lines(sync_trace)
            assert _protocol_lines(async_trace) == lines
            seen[label] = (sync_result.decisions, sorted(lines))
        dropped, corrupted = seen["corrupt-then-drop"], seen["drop-then-corrupt"]
        assert all(value is DEFAULT for value in dropped[0].values())
        assert set(corrupted[0].values()) == {"corrupted"}
        assert dropped[1] != corrupted[1]

    def test_the_runner_has_no_round_of_its_own(self):
        import repro.net

        for name in ("_step_processes", "_apply_adapters"):
            assert not hasattr(AsyncRoundRunner, name)
        for name in (
            "AsyncFaultAdapter", "InjectorAdapter", "MuteAdapter",
            "lift_injectors", "behavior_adapters",
        ):
            assert not hasattr(repro.net, name)
