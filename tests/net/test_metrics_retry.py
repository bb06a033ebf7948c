"""NetMetrics contents and the runner's one-send-per-frame path."""

import asyncio
from collections import Counter

import pytest

from repro.core.protocol import execute_degradable_protocol
from repro.core.spec import DegradableSpec
from repro.exceptions import TransportError
from repro.net import (
    MARK,
    LocalBus,
    NetMetrics,
    Transport,
    make_transport,
    run_agreement_async,
)
from repro.sim.faults import OmissionInjector
from tests.net.flaky import FlakyTransport
from repro.sim.trace import EventKind
from repro.verify import record_net_outcome, verify_record

from tests.conftest import node_names

VALUE = "engage"


def _run(spec, nodes, transport, **kwargs):
    return asyncio.run(
        run_agreement_async(spec, nodes, "S", VALUE, transport=transport, **kwargs)
    )


class _SendSpy(Transport):
    """Counts send attempts per frame; every send on *link* raises."""

    name = "send-spy"

    def __init__(self, inner, link):
        self.inner = inner
        self.link = link
        self.attempts = Counter()

    def attach_metrics(self, metrics):
        self.inner.attach_metrics(metrics)

    async def open(self, nodes):
        await self.inner.open(nodes)

    async def send(self, frame):
        self.attempts[
            (frame.round_no, frame.source, frame.destination, frame.kind)
        ] += 1
        if (frame.source, frame.destination) == self.link:
            raise TransportError("permanently failing link")
        return await self.inner.send(frame)

    async def recv(self, node):
        return await self.inner.recv(node)

    async def close(self):
        await self.inner.close()


class TestSingleSend:
    def test_failed_send_becomes_message_loss(self, spec_1_2):
        """A permanently failing link degrades to omission, never to error."""
        nodes = node_names(5)
        flaky = FlakyTransport(
            LocalBus(),
            failures=10 ** 9,
            match=lambda f: f.source == "S"
            and f.destination == "p1"
            and f.kind in ("data", "batch"),
        )
        outcome = _run(spec_1_2, nodes, flaky, round_timeout=0.4)
        sync_result, _ = execute_degradable_protocol(
            spec_1_2, nodes, "S", VALUE,
            extra_injectors=[OmissionInjector.for_links({("S", "p1")})],
        )
        assert outcome.result.decisions == sync_result.decisions
        assert outcome.metrics.total_send_failures > 0
        assert outcome.result.stats.substitutions == (
            sync_result.stats.substitutions
        )

    def test_failing_send_is_attempted_exactly_once_per_frame(self, spec_1_2):
        """The runner never retries: one ``transport.send`` per frame,
        and each one that raised is exactly one recorded send failure."""
        nodes = node_names(5)
        spy = _SendSpy(LocalBus(), ("S", "p1"))
        outcome = _run(spec_1_2, nodes, spy, round_timeout=0.4)
        assert spy.attempts
        assert set(spy.attempts.values()) == {1}
        failed = [key for key in spy.attempts if key[1:3] == ("S", "p1")]
        assert failed
        assert outcome.metrics.total_send_failures == len(failed)
        assert outcome.metrics.total_frames == len(spy.attempts) - len(failed)


class TestSendParity:
    """One send path: a frame lost to a dead link is metered the same
    whether or not a supervisor tried to heal the link first."""

    @pytest.mark.parametrize("supervise", [False, True])
    @pytest.mark.parametrize("transport", ["local", "tcp"])
    def test_lost_frame_metered_identically(
        self, spec_1_2, transport, supervise
    ):
        nodes = node_names(5)
        flaky = FlakyTransport(
            make_transport(transport),
            failures=10 ** 9,
            match=lambda f: (f.source, f.destination) == ("S", "p1"),
        )
        outcome = _run(
            spec_1_2, nodes, flaky, round_timeout=0.4, supervise=supervise
        )
        counters = outcome.metrics.counters()
        # Pinned, not compared pairwise: every (transport, supervise) cell
        # must land on the same numbers.  S's round-1 frame to p1 is the
        # one loss; it is no sent frame.
        assert {
            key: counters[key]
            for key in counters
            if key.endswith((".frames_sent", ".send_failures"))
        } == {
            "r1.frames_sent": 3, "r1.send_failures": 1,
            "r2.frames_sent": 12, "r2.send_failures": 0,
            "r3.frames_sent": 0, "r3.send_failures": 0,
        }
        assert not [
            event for event in outcome.trace.events
            if event.kind == EventKind.FRAME_SENT
            and (event.source, event.destination) == ("S", "p1")
        ]
        record = record_net_outcome(
            spec_1_2, nodes, "S", VALUE, {"S"}, outcome
        )
        assert verify_record(record).ok
        sync_result, _ = execute_degradable_protocol(
            spec_1_2, nodes, "S", VALUE,
            extra_injectors=[OmissionInjector.for_links({("S", "p1")})],
        )
        assert outcome.result.decisions == sync_result.decisions


class _MarkDelayer(Transport):
    """Holds one round-1 MARK and replays it during round 2.

    Reproduces chaos-induced marker lateness deterministically: the
    receiver rides out the round-1 deadline (the marker never came), and
    the stale MARK surfaces mid round 2, where it must be *metered* as a
    late frame — not silently swallowed, and certainly not allowed to
    resolve a round-2 wait.
    """

    name = "mark-delayer"

    def __init__(self, inner, source, destination):
        self.inner = inner
        self.source = source
        self.destination = destination
        self.held = None

    def attach_metrics(self, metrics):
        self.inner.attach_metrics(metrics)

    async def open(self, nodes):
        await self.inner.open(nodes)

    async def send(self, frame):
        if (
            frame.kind == MARK
            and frame.round_no == 1
            and frame.source == self.source
            and frame.destination == self.destination
        ):
            self.held = frame
            return 0
        if (
            self.held is not None
            and frame.round_no == 2
            and frame.destination == self.destination
        ):
            held, self.held = self.held, None
            await self.inner.send(held)
        return await self.inner.send(frame)

    async def recv(self, node):
        return await self.inner.recv(node)

    async def close(self):
        await self.inner.close()


class TestStaleMarkMetering:
    def test_stale_mark_is_metered_not_swallowed(self, spec_1_2):
        """Regression: a MARK from an already-closed round is recorded as
        a late frame (the old collector dropped it without a trace) and
        does not count toward the round it straggled into."""
        nodes = node_names(5)
        transport = _MarkDelayer(LocalBus(), "S", "p1")
        outcome = asyncio.run(
            run_agreement_async(
                spec_1_2, nodes, "S", VALUE,
                transport=transport,
                round_timeout=0.3,
                batching=False,   # the legacy path has standalone MARKs
            )
        )
        # p1 rode out round 1 without S's marker...
        assert outcome.metrics.rounds[1].timeouts >= 1
        # ...and the stale marker was metered when it surfaced in round 2.
        assert outcome.metrics.rounds[2].late_frames >= 1
        # The data all arrived; only the marker was late — decisions are
        # exactly the clean run's.
        sync_result, _ = execute_degradable_protocol(
            spec_1_2, nodes, "S", VALUE
        )
        assert outcome.result.decisions == sync_result.decisions
        # late_frames is part of the determinism fingerprint.
        assert "r2.late_frames" in outcome.metrics.counters()


class TestNetMetrics:
    def test_per_round_counters_cover_every_round(self, spec_1_2):
        nodes = node_names(5)
        outcome = _run(spec_1_2, nodes, LocalBus())
        # spec.rounds waves + the final decide round, all present.
        assert sorted(outcome.metrics.rounds) == [1, 2, 3]
        assert outcome.metrics.rounds[1].messages_sent == 4
        assert outcome.metrics.rounds[2].messages_sent == 12
        assert outcome.metrics.rounds[3].messages_sent == 0

    def test_bytes_and_latencies_recorded(self, spec_1_2):
        nodes = node_names(5)
        outcome = _run(spec_1_2, nodes, LocalBus())
        assert outcome.metrics.total_bytes > 0
        pct = outcome.metrics.latency_percentiles()
        assert 0.0 <= pct["p50"] <= pct["p99"]

    def test_substitutions_mirror_result_stats(self):
        spec = DegradableSpec(m=1, u=2, n_nodes=5)
        nodes = node_names(5)
        outcome = _run(
            spec, nodes, LocalBus(),
            extra_injectors=[OmissionInjector.from_sources({"p1"})],
        )
        assert outcome.metrics.substitutions == (
            outcome.result.stats.substitutions
        )
        assert outcome.metrics.substitutions > 0

    def test_render_produces_table_and_summary(self, spec_1_2):
        nodes = node_names(5)
        outcome = _run(spec_1_2, nodes, LocalBus())
        text = outcome.metrics.render()
        assert "round" in text and "msgs" in text
        assert "transport=local" in text
        assert "latency p50=" in text

    def test_empty_metrics_render(self):
        metrics = NetMetrics(transport="local")
        text = metrics.render()
        assert "transport=local" in text
        assert metrics.latency_percentiles() == {
            "p50": 0.0, "p90": 0.0, "p99": 0.0,
        }
