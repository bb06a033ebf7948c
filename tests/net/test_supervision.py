"""Self-healing links: backoff, dedup, and kill-links soaks.

Covers the supervision layer bottom-up: the backoff schedule,
receive-side sequence dedup (replay suppression that survives chaos
reordering), transparent healing of transient send failures under
a full protocol run, and the acceptance soak — a seeded chaos campaign
that hard-resets every TCP connection and crash-restarts a node mid-run,
twice, asserting identical decisions and wire fingerprints.
"""

import asyncio
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.protocol import execute_degradable_protocol
from repro.core.spec import DegradableSpec
from repro.explore.clock import run_on_virtual_clock
from repro.net.codec import BATCH, DATA, MARK, Frame
from repro.net.metrics import NetMetrics
from repro.net.runner import run_agreement_async
from repro.net.supervision import (
    JITTER,
    MAX_ATTEMPTS,
    SupervisedTransport,
    backoff_delay,
)
from repro.net.transport import LocalBus
from repro.obs.events import LINK_OUTAGE, EventBus
from repro.sim.messages import Message, RelayPayload
from repro.trace import Tracer
from repro.verify.fuzz import FuzzCase, parse_case_token, rerun_diff, run_case
from tests.net.flaky import FlakyTransport

NODES = ["S", "p1", "p2"]


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


class TestBackoffPolicy:
    """The re-dial schedule: at most 4 attempts, 0.01 s doubling up to a
    0.25 s cap, each stretched by at most 25 % from the supervisor's RNG."""

    def test_exponential_growth_capped(self):
        unjittered = SimpleNamespace(random=lambda: 0.0)
        delays = [backoff_delay(k, unjittered) for k in range(1, 8)]
        assert delays[:5] == [0.01, 0.02, 0.04, 0.08, 0.16]
        assert delays[5:] == [0.25, 0.25]  # capped
        assert MAX_ATTEMPTS == 4

    def test_jitter_stretches_within_bounds(self):
        rng = random.Random(7)
        for _ in range(50):
            d = backoff_delay(1, rng)
            assert 0.01 <= d <= 0.01 * (1 + JITTER)
        assert JITTER == 0.25

    def test_jitter_is_seed_deterministic(self):
        a = [backoff_delay(k, random.Random(3)) for k in range(1, 5)]
        b = [backoff_delay(k, random.Random(3)) for k in range(1, 5)]
        assert a == b


_MESSAGE = Message("S", "p1", RelayPayload(("S",), "engage"), 1, "byz")
STAMP_SAMPLES = [
    Frame(DATA, 1, "S", "p1", _MESSAGE, 2.5),
    Frame(MARK, 2, "S", "p1", sent_at=3.5),
    Frame(BATCH, 3, "S", "p1", None, 4.5, (_MESSAGE, _MESSAGE), True),
    Frame(DATA, 1, "S", "p1", _MESSAGE, 2.5, instance="i7", trace="00ab"),
    Frame(MARK, 2, "S", "p1", sent_at=3.5, instance=("op", 1), trace="00cd"),
    Frame(BATCH, 3, "S", "p1", None, 4.5, (_MESSAGE,), False, "i9", None, "00ef"),
]


class TestSeqStamp:
    def test_the_stamped_frame_is_replace_with_seq(self):
        """The positional stamp keeps every field but ``seq`` as it was."""

        async def scenario():
            # LocalBus queues the very object the supervisor sent.
            bus = LocalBus()
            sup = SupervisedTransport(bus)
            await sup.open(NODES)
            try:
                for frame in STAMP_SAMPLES:
                    await sup.send(frame)
                return [await bus.recv("p1") for _ in STAMP_SAMPLES]
            finally:
                await sup.close()

        sent = asyncio.run(scenario())
        assert len(sent) == len(STAMP_SAMPLES)
        for seq, (frame, stamped) in enumerate(zip(STAMP_SAMPLES, sent), 1):
            assert type(stamped) is Frame
            assert stamped == replace(frame, seq=seq)
            assert vars(stamped) == vars(replace(frame, seq=seq))


class TestSequenceDedup:
    def test_replayed_frame_delivered_once(self):
        async def scenario():
            bus = LocalBus()
            sup = SupervisedTransport(bus, rng=random.Random(0))
            metrics = NetMetrics(transport=sup.name)
            sup.attach_metrics(metrics)
            await sup.open(NODES)
            try:
                await sup.send(data_frame(value="a"))
                # A reconnect-era retransmission: the same stamped frame
                # reaches the inner transport a second time.
                stamped = replace(data_frame(value="a"), seq=1)
                await bus.send(stamped)
                await sup.send(data_frame(value="b", round_no=1))

                first = await asyncio.wait_for(sup.recv("p1"), timeout=5.0)
                second = await asyncio.wait_for(sup.recv("p1"), timeout=5.0)
            finally:
                await sup.close()
            return first, second, metrics

        first, second, metrics = asyncio.run(scenario())
        assert first.message.payload.value == "a"
        # The replay was swallowed, not delivered as the second frame.
        assert second.message.payload.value == "b"
        assert metrics.link("S", "p1").deduped == 1

    def test_out_of_order_new_seq_is_not_a_replay(self):
        async def scenario():
            bus = LocalBus()
            sup = SupervisedTransport(bus, rng=random.Random(0))
            await sup.open(NODES)
            try:
                # Chaos reordering: seq 5 arrives before seq 3.  Both are
                # new; a high-water-mark dedup would drop the second.
                await bus.send(replace(data_frame(value="late5"), seq=5))
                await bus.send(replace(data_frame(value="late3"), seq=3))
                got = [
                    await asyncio.wait_for(sup.recv("p1"), timeout=5.0)
                    for _ in range(2)
                ]
            finally:
                await sup.close()
            return [f.message.payload.value for f in got]

        assert asyncio.run(scenario()) == ["late5", "late3"]

    def test_seen_window_is_pruned(self):
        async def scenario():
            bus = LocalBus()
            sup = SupervisedTransport(bus, rng=random.Random(0), dedup_window=8)
            await sup.open(NODES)
            try:
                for seq in range(1, 30):
                    await bus.send(replace(data_frame(), seq=seq))
                    await asyncio.wait_for(sup.recv("p1"), timeout=5.0)
                state = sup.link("S", "p1")
                assert len(state.seen) <= 8 + 1
                assert state.high_seq == 29
            finally:
                await sup.close()

        asyncio.run(scenario())

    def test_unstamped_frames_bypass_dedup(self):
        async def scenario():
            bus = LocalBus()
            sup = SupervisedTransport(bus, rng=random.Random(0))
            await sup.open(NODES)
            try:
                # Legacy/unsupervised peers send seq-less frames; two
                # identical ones must both deliver (dup chaos is counted
                # elsewhere, not silently eaten here).
                await bus.send(data_frame(value="x"))
                await bus.send(data_frame(value="x"))
                got = [
                    await asyncio.wait_for(sup.recv("p1"), timeout=5.0)
                    for _ in range(2)
                ]
            finally:
                await sup.close()
            return len(got)

        assert asyncio.run(scenario()) == 2


class TestTransparentHealing:
    def test_transient_send_failures_healed_below_the_runner(self, spec_1_2):
        """The supervisor absorbs flaky sends: the runner sees no failure
        and decides exactly what the synchronous engine does."""
        nodes = ["S", "p1", "p2", "p3", "p4"]

        async def scenario():
            flaky = FlakyTransport(
                LocalBus(), failures=2, match=lambda f: f.kind == DATA
            )
            return await run_agreement_async(
                spec_1_2, nodes, "S", "engage",
                transport=flaky, round_timeout=5.0, supervise=True,
            )

        outcome = asyncio.run(scenario())
        reference, _ = execute_degradable_protocol(
            spec_1_2, nodes, "S", "engage", record_trace=False
        )
        assert outcome.decisions == reference.decisions
        assert outcome.metrics.total_send_failures == 0

    def test_a_healed_outage_is_metered_published_and_traced(self):
        """One refused attempt, then the re-dial lands: the link records one
        outage, the bus one ``link_outage`` with ``healed=True``, the
        ``link_heal`` span ends ``healed=True``, and the frame arrives
        once, under the ``seq`` it was stamped with."""

        async def scenario():
            loop = asyncio.get_running_loop()
            sup = SupervisedTransport(
                FlakyTransport(LocalBus(), failures=1), rng=random.Random(0)
            )
            bus, tracer = EventBus(), Tracer(7, clock=loop.time)
            metrics = NetMetrics(transport=sup.name, bus=bus, tracer=tracer)
            sup.attach_metrics(metrics)
            await sup.open(NODES)
            started = loop.time()
            try:
                await sup.send(data_frame())
                frame = sup.recv_nowait("p1")
                replay = sup.recv_nowait("p1")
            finally:
                await sup.close()
            return frame, replay, loop.time() - started, metrics, bus, tracer

        frame, replay, healed_in, metrics, bus, tracer = run_on_virtual_clock(
            scenario()
        )
        assert frame.seq == 1 and frame.message.payload.value == "engage"
        assert replay is None
        link = metrics.link("S", "p1")
        assert (link.outages, link.outage_seconds) == (1, healed_in)
        assert 0 < healed_in <= backoff_delay(1, SimpleNamespace(random=lambda: 1.0))
        (outage,) = [e for e in bus.recent() if e.kind == LINK_OUTAGE]
        assert outage.data == {
            "source": "S", "destination": "p1", "seconds": healed_in, "healed": True,
        }
        (heal,) = [s for s in tracer.spans if s.name == "link_heal"]
        assert heal.attrs["healed"] is True and heal.seq == 1
        assert [e.name for e in heal.events] == ["backoff"]
        assert metrics.total_send_failures == 0

    def test_exhausted_retries_become_metered_absence(self, spec_1_2):
        """An unhealable link is an omission fault, not an exception: the
        verdict degrades exactly as the paper's model says."""
        nodes = ["S", "p1", "p2", "p3", "p4"]

        async def scenario():
            flaky = FlakyTransport(
                LocalBus(),
                failures=10**9,
                match=lambda f: f.destination == "p1",
            )
            return await run_agreement_async(
                spec_1_2, nodes, "S", "engage",
                transport=flaky, round_timeout=0.3, supervise=True,
            )

        # Virtual clock: round 2's three links to p1 re-dial one after
        # another, so its last frame leaves 0.21-0.26 s into the 0.3 s
        # round — exact here, a coin toss on a loaded host's real clock.
        outcome = run_on_virtual_clock(scenario())
        # p1 heard nothing and resolved V_d everywhere it needed to; the
        # other receivers still agree on the sender's value.
        assert outcome.metrics.total_send_failures > 0
        for node in ("p2", "p3", "p4"):
            assert outcome.decisions[node] == "engage"


class TestKillLinksSoak:
    @staticmethod
    def _case(transport, seed, m=1, u=2, n=5):
        return FuzzCase(
            m=m, u=u, n_nodes=n, sender_value="engage",
            chaos_severity="light", chaos_seed=seed, timeout=0.5,
            transport=transport, kill_links=True,
        )

    def test_restart_trial_is_deterministic_on_localbus(self):
        case = self._case("local", 2024)
        first, second = run_case(case), run_case(case)
        run, again = first.runs["local"], second.runs["local"]
        assert run.metrics.endpoint_restarts == 1
        assert rerun_diff([first], [second]) == []
        assert run.result.decisions == again.result.decisions
        assert run.metrics.counters() == again.metrics.counters()
        assert first.ok and second.ok, first.render()

    def test_replay_token_round_trips_kill_links(self):
        case = self._case("local", 9)
        assert parse_case_token(case.token) == case
        plain = replace(case, kill_links=False)
        assert "kill_links" not in plain.token
        assert parse_case_token(plain.token) == plain

    @pytest.mark.timeout(300)
    def test_tcp_reset_and_restart_soak(self):
        """Acceptance gate: a deep spec over real TCP, every connection
        hard-reset at each relay round and one endpoint crash-restarted
        mid-run — completes, passes the oracle for its tier, actually
        reconnects, and reproduces its full wire fingerprint on a
        same-seed re-run."""
        case = self._case("tcp", 2108511367, m=2, u=3, n=8)
        first, second = run_case(case), run_case(case)
        assert first.ok, first.render()
        run, again = first.runs["tcp"], second.runs["tcp"]
        assert run.metrics.total_reconnects > 0  # relay links re-dialed
        assert run.metrics.endpoint_restarts == 1
        assert run.result.decisions == again.result.decisions
        fingerprint = run.metrics.counters()
        assert fingerprint == again.metrics.counters()
        for key in fingerprint:
            if key.startswith("link.") and key.endswith(".reconnects"):
                break
        else:
            raise AssertionError(
                "fingerprint carries no reconnect counters: "
                f"{sorted(fingerprint)}"
            )
