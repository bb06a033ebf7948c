"""Differential test: the pruned dedup window against the reference oracle.

``tests/net/reference_dedup.py`` holds ``SupervisedTransport._admit`` as
it was — rebuild the seen-set whenever it overflows.  The live ``_admit``
keeps exactly the admitted numbers in ``(high_seq - dedup_window,
high_seq]`` and forgets the ones that fall below as ``high_seq`` rises.
On streams whose replays come within ``dedup_window`` of the high-water
mark the two must admit the same frames and count the same replays; and
the live window must reach its steady state without ever iterating the
set.
"""

import asyncio
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.codec import MARK, Frame
from repro.net.metrics import NetMetrics
from repro.net.supervision import SupervisedTransport
from repro.net.transport import LocalBus

from tests.net.reference_dedup import ReferenceDedup

SOURCES = ("S", "p1")
NODE = "p2"


def _frame(source, seq):
    return Frame(kind=MARK, round_no=1, source=source, destination=NODE, seq=seq)


@st.composite
def streams(draw):
    """(dedup_window, [(source, seq), ...]) with replays inside the window.

    Per link: ``new`` jumps past the high-water mark by 1 + a gap (gaps up
    to two windows wide), ``window`` picks a number in ``(high - window,
    high]`` — a late first arrival or a replay — and ``dup`` repeats the
    link's last number.
    """
    window = draw(st.integers(1, 12))
    high = dict.fromkeys(SOURCES, 0)
    last = dict.fromkeys(SOURCES, 0)
    stream = []
    for _ in range(draw(st.integers(0, 120))):
        source = draw(st.sampled_from(SOURCES))
        op = draw(st.sampled_from(["new", "new", "window", "dup"]))
        if op == "new" or high[source] == 0:
            seq = high[source] + 1 + draw(st.integers(0, 2 * window))
            high[source] = seq
        elif op == "window":
            seq = high[source] - draw(
                st.integers(0, min(window, high[source]) - 1)
            )
        else:
            seq = last[source]
        last[source] = seq
        stream.append((source, seq))
    return window, stream


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(streams())
    def test_same_admits_and_dedup_counts(self, case):
        window, stream = case
        live_metrics, ref_metrics = NetMetrics(), NetMetrics()
        live = SupervisedTransport(LocalBus(), dedup_window=window)
        live.attach_metrics(live_metrics)
        ref = ReferenceDedup(window, metrics=ref_metrics)
        for source, seq in stream:
            frame = _frame(source, seq)
            assert live._admit(frame, NODE) == ref._admit(frame, NODE), (
                source,
                seq,
            )
            state = live.link(source, NODE)
            assert all(
                state.high_seq - window < s <= state.high_seq
                for s in state.seen
            )
        for source in SOURCES:
            assert (
                live_metrics.link(source, NODE).deduped
                == ref_metrics.link(source, NODE).deduped
            )
            assert live.link(source, NODE).high_seq == ref.link(
                source, NODE
            ).high_seq


class _CountingSet(set):
    """A ``set`` that counts full iterations over itself."""

    def __init__(self):
        super().__init__()
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestPruningCost:
    def test_full_window_is_never_iterated(self):
        window = 64
        bus = LocalBus()
        sup = SupervisedTransport(bus, rng=random.Random(0), dedup_window=window)
        seen = _CountingSet()

        async def scenario():
            await sup.open(["S", NODE])
            sup.link("S", NODE).seen = seen
            try:
                for seq in range(1, 3 * window + 1):
                    await bus.send(_frame("S", seq))
                    await asyncio.wait_for(sup.recv(NODE), timeout=5.0)
            finally:
                await sup.close()

        # The set stays out of the coroutine's result: a task's repr
        # would iterate it.
        asyncio.run(scenario())
        assert seen.iterations == 0
        assert sup.link("S", NODE).seen is seen
        assert sorted(set.__iter__(seen)) == list(
            range(2 * window + 1, 3 * window + 1)
        )
