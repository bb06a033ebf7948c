"""The round deadline: one timer per round, and what it ends.

``AsyncRoundRunner.run`` arms one timer per round before the first send;
when it fires it cancels whatever the round still awaits — the send in
flight, or the collects still waiting on ``transport.recv``.  These tests
pin what that must not change — when a round with an absence closes,
which ``TIMEOUT``/``LATE_FRAME`` events and counters it leaves, what is
decided (values taken from the ``wait_for``-per-frame runner, on the
virtual clock, where they are exact) — how a send cut off at the deadline
is metered, and what tells the deadline expiring from somebody cancelling
the run.
"""

import asyncio

import pytest

from repro.core.protocol import ProtocolSession
from repro.core.values import DEFAULT
from repro.explore import (
    ExploreConfig,
    ExploredTransport,
    ScheduleController,
    run_on_virtual_clock,
    run_token,
)
from repro.explore.clock import DEFAULT_START_TIME
from repro.net.runner import AsyncRoundRunner
from repro.net.transport import LocalBus
from repro.sim.trace import EventKind
from repro.trace import Tracer


def _runner(config, schedule=(), transport=None, tracer=None):
    if transport is None:
        transport = ExploredTransport(
            ScheduleController(schedule),
            round_timeout=config.round_timeout,
        )
    session = ProtocolSession.byz(
        config.spec(), config.nodes(), "S", config.sender_value
    )
    return AsyncRoundRunner(
        session,
        transport=transport,
        round_timeout=config.round_timeout,
        batching=config.batching,
        tracer=tracer,
    )


def _wire_events(runner, kind):
    return [
        (e.round_no, e.source, e.destination, (e.meta or {}).get("frame_round"))
        for e in runner.trace.of_kind(kind)
    ]


ALPHA = {"p1": "alpha", "p2": "alpha", "p3": "alpha", "p4": "alpha"}
UNBATCHED = ExploreConfig(batching=False)

#: (config, schedule, round durations, TIMEOUT events, LATE_FRAME events,
#: decisions, afflicted, fingerprint) — read off the parent's runner.
PINNED = [
    pytest.param(  # round 1's S->p1 batch dropped: p1 rides out the deadline
        ExploreConfig(), (1,),
        [1.0, 0.0, 0.0], [(1, "S", "p1", None)], [],
        ALPHA, {"S"},
        "625ec341c5a65e5ca95138b93c8cb5a2c279f8953286c039c6e649322e97cf5e",
        id="drop",
    ),
    pytest.param(  # S->p1 stalled past round 1; it surfaces while p1 waits
        # out round 2 (p2->p1 dropped) and is metered as a late frame
        ExploreConfig(), (2, 0, 0, 0, 0, 0, 0, 1),
        [1.0, 1.0, 0.0], [(1, "S", "p1", None), (2, "p2", "p1", None)],
        [(2, "S", "p1", 1)],
        {**ALPHA, "p1": DEFAULT}, {"S", "p2"},
        "18371ca98a9a083303d8bd1f81f94a0dec164d4dbfc0358a042f2469e60d54b1",
        id="stall",
    ),
    pytest.param(  # unbatched: S->p1 DATA deferred, round 1 closes on the
        # MARKs before it lands (the defer loses its race); round 2 is held
        # open by a dropped S->p1 MARK and files the straggler as late
        UNBATCHED, (3,) + (0,) * 35 + (1,),
        [0.0, 1.0, 0.0], [(2, "S", "p1", None)], [(2, "S", "p1", 1)],
        ALPHA, {"S"},
        "63208647255dc91cb0dcc2a77cf8da2b9e9bb8fbb2db62909f748dc491018087",
        id="defer-loses",
    ),
]


@pytest.mark.no_wall_timeout
@pytest.mark.parametrize(
    "config,schedule,durations,timeouts,late,decisions,afflicted,fingerprint", PINNED
)
def test_an_absence_closes_the_round_at_exactly_its_deadline(
    config, schedule, durations, timeouts, late, decisions, afflicted, fingerprint
):
    runner = _runner(config, schedule)
    result = run_on_virtual_clock(runner.run())
    metrics = runner.metrics
    # round_started + round_timeout, to the float: not a tick early or late.
    assert metrics.round_durations() == durations
    assert _wire_events(runner, EventKind.TIMEOUT) == timeouts
    assert _wire_events(runner, EventKind.LATE_FRAME) == late
    assert metrics.total_timeouts == len(timeouts)
    assert metrics.total_late_frames == len(late)
    assert result.decisions == decisions
    assert runner.transport.afflicted == afflicted
    assert run_token(config.token(schedule)).fingerprint == fingerprint


class _ClosingBus(LocalBus):
    """``LocalBus`` that delivers nothing and remembers being closed."""

    closed = False

    async def send(self, frame) -> int:
        return 0

    async def close(self) -> None:
        self.closed = True
        await super().close()


@pytest.mark.no_wall_timeout
def test_cancelling_run_mid_collect_raises_out_of_run_and_closes_the_transport():
    config = ExploreConfig(round_timeout=10.0)
    runner = _runner(config, transport=_ClosingBus())

    async def scenario():
        loop = asyncio.get_running_loop()
        task = asyncio.ensure_future(runner.run())
        await asyncio.sleep(1.0)  # virtual: every collect is now waiting
        assert not task.done()
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        leaked = [
            t for t in asyncio.all_tasks()
            if t is not asyncio.current_task() and not t.done()
        ]
        return task.cancelled(), leaked, loop.time()

    cancelled, leaked, now = run_on_virtual_clock(scenario())
    assert cancelled and leaked == []
    assert runner.transport.closed
    # Nothing rode out the 10 s deadline, and nothing was filed as absent:
    # a cancelled collect is not a timed-out one.
    assert now == DEFAULT_START_TIME + 1.0
    assert runner.metrics.total_timeouts == 0
    assert runner.trace.of_kind(EventKind.TIMEOUT) == []


class _HangingBus(_ClosingBus):
    """``_ClosingBus`` whose sends never return — unless *passes* says so."""

    def __init__(self, passes=lambda frame: False) -> None:
        super().__init__()
        self.passes = passes

    async def send(self, frame) -> int:
        if self.passes(frame):
            return await LocalBus.send(self, frame)
        await asyncio.sleep(3600)


@pytest.mark.no_wall_timeout
@pytest.mark.skipif(
    not hasattr(asyncio.Task, "uncancel"), reason="needs Task.uncancel (3.11+)"
)
@pytest.mark.parametrize("phase", ["send", "collect"])
@pytest.mark.parametrize("outsider_first", [True, False], ids=["before", "after"])
def test_an_outside_cancel_in_the_deadline_s_own_loop_turn_is_not_swallowed(
    outsider_first, phase,
):
    """Round 1's deadline and a caller's cancel land in one loop turn, the
    caller's timer armed before or after the round's: while the run's own
    task is sending, or while its collects wait.  The cancel must come out
    of ``run()``; a swallowed one would go on to meter the round."""
    transport = _HangingBus() if phase == "send" else _ClosingBus()
    runner = _runner(ExploreConfig(), transport=transport)

    async def scenario():
        loop = asyncio.get_running_loop()
        deadline = loop.time() + runner.round_timeout
        task = None
        if outsider_first:
            loop.call_at(deadline, lambda: task.cancel())
        task = asyncio.ensure_future(runner.run())
        await asyncio.sleep(0)  # round 1 opens and arms its timer
        if not outsider_first:
            loop.call_at(deadline, task.cancel)
        with pytest.raises(asyncio.CancelledError):
            await task
        return task.cancelled(), loop.time()

    cancelled, now = run_on_virtual_clock(scenario())
    assert cancelled and now == DEFAULT_START_TIME + runner.round_timeout
    assert runner.transport.closed
    assert runner.metrics.total_send_failures == 0
    assert runner.metrics.total_timeouts == 0


@pytest.mark.no_wall_timeout
def test_a_send_cut_off_at_the_deadline_is_metered_like_a_transport_error():
    """Round 1's S->p2 batch never leaves: S->p1 went out before it, S->p3
    and S->p4 never start.  Three send failures, one ``FRAME_SENT``, the
    in-flight send span ends ``ok=False`` — and the round closes at exactly
    its deadline, its collects awaiting nothing, so S->p1 surfaces late."""
    transport = _HangingBus(
        lambda frame: frame.round_no > 1 or frame.destination == "p1"
    )
    tracer = Tracer(7)
    runner = _runner(ExploreConfig(), transport=transport, tracer=tracer)
    run_on_virtual_clock(runner.run())
    first = runner.metrics.rounds[1]
    assert (first.frames_sent, first.send_failures, first.timeouts) == (1, 3, 4)
    assert runner.metrics.round_durations() == [1.0, 0.0, 0.0]
    assert [e for e in _wire_events(runner, EventKind.FRAME_SENT) if e[0] == 1] == [
        (1, "S", "p1", None)
    ]
    assert _wire_events(runner, EventKind.LATE_FRAME) == [(2, "S", "p1", 1)]
    sends = [
        (span.destination, span.attrs["ok"])
        for span in tracer.spans
        if span.name == "send" and span.round_no == 1
    ]
    assert sends == [("p1", True), ("p2", False)]


class _NeverAsked(_HangingBus):
    """Every send hangs, and ``recv`` must never be awaited."""

    async def recv(self, node):
        raise AssertionError("recv awaited after the deadline")


def _run_never_asked(early=False):
    runner = _runner(ExploreConfig(), transport=_NeverAsked())

    async def scenario():
        loop = asyncio.get_running_loop()
        if early:
            loop._clock_resolution = 0.5
            loop.call_at(loop.time() + 0.6, lambda: None)
        return await runner.run()

    return runner, run_on_virtual_clock(scenario())


@pytest.mark.no_wall_timeout
def test_a_timer_that_fires_before_its_instant_still_ends_the_round():
    """A loop runs a timer up to its clock resolution before the timer's
    instant: a 0.5 s resolution and a wake-up at 0.6 s fire round 1's
    timer early.  Round 1's collects then start before the deadline's
    instant but after its timer — a collect that trusted the clock over
    the timer would wait with nothing left to wake it."""
    runner, result = _run_never_asked(early=True)
    assert runner.metrics.total_timeouts == 16
    assert set(result.decisions.values()) == {DEFAULT}


@pytest.mark.no_wall_timeout
def test_a_collect_whose_deadline_has_passed_awaits_nothing():
    """Every send hangs, so every round's sends run into its deadline and
    its collects start after it: none may await ``recv``.  Every expected
    peer is filed as a timeout instead, and every frame built is lost."""
    runner, result = _run_never_asked()
    assert runner.metrics.round_durations() == [1.0, 1.0, 0.0]
    assert runner.metrics.total_timeouts == 16
    assert runner.metrics.total_send_failures == 16 == len(
        runner.trace.of_kind(EventKind.COALESCED)
    )
    assert _wire_events(runner, EventKind.TIMEOUT)[:4] == [
        (1, "S", "p1", None), (1, "S", "p2", None),
        (1, "S", "p3", None), (1, "S", "p4", None),
    ]
    assert set(result.decisions.values()) == {DEFAULT}
