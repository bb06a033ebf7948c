"""The round deadline: one timer per node-round, and what ends a collect.

``AsyncRoundRunner._collect`` awaits ``transport.recv`` directly and arms
one ``loop.call_at(deadline, ...)`` that cancels its own pending ``recv``.
These tests pin what that must not change — when a round with an absence
closes, which ``TIMEOUT``/``LATE_FRAME`` events and counters it leaves,
what is decided (values taken from the ``wait_for``-per-frame runner, on
the virtual clock, where they are exact) — and what tells the deadline
expiring from somebody cancelling the run.
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


def _runner(config, schedule=(), transport=None):
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


@pytest.mark.no_wall_timeout
@pytest.mark.skipif(
    not hasattr(asyncio.Task, "uncancel"), reason="needs Task.uncancel (3.11+)"
)
@pytest.mark.parametrize("outsider_first", [True, False], ids=["before", "after"])
def test_an_outside_cancel_in_the_deadline_s_own_loop_turn_is_not_swallowed(
    outsider_first,
):
    runner = _runner(ExploreConfig(), transport=_ClosingBus())

    async def scenario():
        loop = asyncio.get_running_loop()
        await runner.transport.open(["S", "p1"])
        deadline = loop.time() + 1.0
        task = None
        if outsider_first:
            loop.call_at(deadline, lambda: task.cancel())
        task = asyncio.ensure_future(runner._collect("p1", 1, deadline, {"S"}))
        await asyncio.sleep(0)  # the collect arms its own timer
        if not outsider_first:
            loop.call_at(deadline, task.cancel)
        with pytest.raises(asyncio.CancelledError):
            await task
        return task.cancelled()

    assert run_on_virtual_clock(scenario())
    assert runner.metrics.total_timeouts == 0


def test_a_collect_whose_deadline_has_passed_awaits_nothing():
    class NeverAsked(LocalBus):
        async def recv(self, node):
            raise AssertionError("recv awaited after the deadline")

    runner = _runner(ExploreConfig(), transport=NeverAsked())

    async def scenario():
        loop = asyncio.get_running_loop()
        before = len(loop._scheduled)
        collect = runner._collect("p1", 1, loop.time(), {"S", "p2"})
        with pytest.raises(StopIteration) as done:
            collect.send(None)  # runs to completion without suspending once
        return done.value.value, len(loop._scheduled) - before

    inbox, timers_armed = asyncio.run(scenario())
    assert inbox == [] and timers_armed == 0
    assert _wire_events(runner, EventKind.TIMEOUT) == [
        (1, "S", "p1", None), (1, "p2", "p1", None)
    ]
