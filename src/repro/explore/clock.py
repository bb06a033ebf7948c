"""Virtual-clock event loop: deterministic time for schedule exploration.

The async runtime reads time exclusively through ``loop.time()`` and
sleeps exclusively through loop timers (``asyncio.sleep``,
``asyncio.wait_for``), so substituting the loop's clock is enough to make
*every* deadline and backoff in the stack virtual.
:class:`VirtualClockLoop` is a :class:`asyncio.SelectorEventLoop` whose

* ``time()`` returns a virtual timestamp instead of the OS monotonic
  clock, and whose
* selector never blocks: when the loop would sleep until its next timer,
  the wrapped selector *advances the virtual clock* by exactly that
  interval and returns immediately.

The result: a run whose only I/O is in-memory (the explorer's
:class:`~repro.explore.transport.ExploredTransport`) executes in
microseconds of wall time regardless of how many virtual seconds of
round deadlines it rides out, and — because the loop is single-threaded,
timers fire in arming order (same-instant timers in the order they were
armed, whatever else sits in the heap), and no real descriptor ever
becomes ready asynchronously — two runs of the same coroutine make
identical scheduling decisions.  That determinism is what turns a
schedule token into a replayable execution.

Two failure modes are converted into loud errors instead of hangs:

* a coroutine that waits forever with *no* pending timer would make the
  real loop block in ``select(None)`` — here it raises
  :class:`ExploreDeadlockError` immediately;
* a timer loop that keeps rescheduling itself (so virtual time advances
  forever without the main future completing) trips the loop's virtual
  *horizon*, again raising :class:`ExploreDeadlockError`.
"""

from __future__ import annotations

import asyncio
import heapq
import selectors
from typing import Any, Awaitable, TypeVar

from repro.exceptions import SimulationError

T = TypeVar("T")

#: Virtual timestamp the clock starts at.  Non-zero so latencies computed
#: as differences can never be confused with absolute timestamps.
DEFAULT_START_TIME = 1000.0

#: Virtual seconds a single run may consume before the loop declares it
#: wedged.  Generous: an explored execution spans a handful of round
#: deadlines (seconds), not hours.
DEFAULT_HORIZON = 10_000.0


class ExploreDeadlockError(SimulationError):
    """The explored execution can make no further progress.

    Raised when every task is blocked with no pending timer (nothing can
    ever wake the loop), or when virtual time overruns the horizon (a
    timer loop that never lets the main future complete).
    """


class _VirtualSelector:
    """Selector proxy: polls ready events, converts sleeps into time warps.

    Only the ``select`` behaviour changes; registration bookkeeping is
    delegated untouched so the loop's self-pipe keeps working.
    """

    def __init__(self, loop: "VirtualClockLoop", inner: selectors.BaseSelector):
        self._loop = loop
        self._inner = inner

    def select(self, timeout: Any = None):
        events = self._inner.select(0)
        if events:
            return events
        if timeout is None:
            raise ExploreDeadlockError(
                "explored execution deadlocked: every task is blocked and "
                "no timer is pending, so nothing can ever wake the loop "
                "(a recv with no bounding deadline?)"
            )
        if timeout > 0:
            self._loop.advance(timeout)
        return []

    # -- bookkeeping delegation ---------------------------------------
    def register(self, *args, **kwargs):
        return self._inner.register(*args, **kwargs)

    def unregister(self, *args, **kwargs):
        return self._inner.unregister(*args, **kwargs)

    def modify(self, *args, **kwargs):
        return self._inner.modify(*args, **kwargs)

    def get_map(self):
        return self._inner.get_map()

    def get_key(self, fileobj):
        return self._inner.get_key(fileobj)

    def close(self):
        return self._inner.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class _ArmedTimer(asyncio.TimerHandle):
    """A timer ordered by ``(when, arming sequence)``.

    ``TimerHandle`` compares by ``when`` alone and ``heapq`` is not
    stable, so which of two same-instant timers fires first would depend
    on unrelated timers in the heap (a stall nobody consumes reordering
    two node-round deadlines).  The sequence number breaks the tie.
    """

    __slots__ = ("_armed",)

    def __lt__(self, other):
        return (self._when, self._armed) < (other._when, other._armed)


class VirtualClockLoop(asyncio.SelectorEventLoop):
    """Event loop on virtual time; idle waits advance the clock instantly."""

    def __init__(
        self,
        start_time: float = DEFAULT_START_TIME,
        horizon: float = DEFAULT_HORIZON,
    ) -> None:
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        super().__init__(selectors.DefaultSelector())
        self._virtual_now = float(start_time)
        self._virtual_limit = float(start_time) + float(horizon)
        self._armed = 0
        # Wrap after super().__init__: the self-pipe is already registered
        # on the inner selector, and all future calls route through the
        # proxy, which only intercepts select().
        self._selector = _VirtualSelector(self, self._selector)

    def time(self) -> float:
        return self._virtual_now

    def call_at(self, when, callback, *args, context=None):
        """``BaseEventLoop.call_at`` with an :class:`_ArmedTimer`."""
        self._check_closed()
        timer = _ArmedTimer(when, callback, args, self, context)
        self._armed = timer._armed = self._armed + 1
        heapq.heappush(self._scheduled, timer)
        timer._scheduled = True
        return timer

    def advance(self, interval: float) -> None:
        """Jump the virtual clock forward by *interval* seconds."""
        self._virtual_now += interval
        if self._virtual_now > self._virtual_limit:
            raise ExploreDeadlockError(
                f"virtual clock overran its horizon at t="
                f"{self._virtual_now:g} (limit {self._virtual_limit:g}): "
                f"the explored execution reschedules timers forever "
                f"without completing"
            )


def run_on_virtual_clock(
    coro: Awaitable[T],
    start_time: float = DEFAULT_START_TIME,
    horizon: float = DEFAULT_HORIZON,
) -> T:
    """Run *coro* to completion on a fresh :class:`VirtualClockLoop`.

    The virtual-clock analogue of :func:`asyncio.run`: creates the loop,
    runs the coroutine, then cancels any stragglers and closes the loop so
    explored executions cannot leak tasks into each other.
    """
    loop = VirtualClockLoop(start_time=start_time, horizon=horizon)
    try:
        asyncio.set_event_loop(loop)
        return loop.run_until_complete(coro)
    finally:
        try:
            _cancel_all_tasks(loop)
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            asyncio.set_event_loop(None)
            loop.close()


def _cancel_all_tasks(loop: asyncio.AbstractEventLoop) -> None:
    tasks = [t for t in asyncio.all_tasks(loop) if not t.done()]
    if not tasks:
        return
    for task in tasks:
        task.cancel()
    loop.run_until_complete(asyncio.gather(*tasks, return_exceptions=True))
