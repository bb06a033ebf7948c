"""What the wire path costs: one serialization per frame, honest byte counts.

* batch savings are envelope arithmetic and must equal what re-encoding
  every replaced frame used to give (the old formula lives in
  ``reference_codec.batch_savings``);
* every frame sent is encoded exactly once — and on TCP decoded exactly
  once — so ``codec.encodes_per_frame_sent`` sits at its floor of 1.0;
* MARK frames are metered in ``bytes_sent`` like every other frame, so
  batched and unbatched byte totals reconcile with ``batch_bytes_saved``;
* a frame *received* costs the event loop no task and no timer: a task
  per frame sent, a task and one deadline timer per node-round, and no
  timer left scheduled however the run ends.
"""

import asyncio

import pytest

from repro.core.protocol import ProtocolSession
from repro.core.spec import DegradableSpec
from repro.net import codec
from repro.net.codec import BATCH, MARK, Frame, batch_bytes_saved, encode_frame
from repro.net.runner import AsyncRoundRunner, run_agreement_async
from repro.net.tcp import TcpTransport
from repro.net.transport import LocalBus
from repro.sim.messages import Message, RelayPayload
from repro.trace import Tracer

from tests.conftest import node_names
from tests.net import reference_codec as reference

SPECS = [DegradableSpec(m=1, u=2, n_nodes=5), DegradableSpec(m=2, u=2, n_nodes=7)]


class _CapturingBus(LocalBus):
    """``LocalBus`` that keeps every ``(frame, nbytes)`` it carried."""

    def __init__(self) -> None:
        super().__init__()
        self.sent = []

    async def send(self, frame) -> int:
        nbytes = await super().send(frame)
        self.sent.append((frame, nbytes))
        return nbytes


def _run_pinned(coro):
    """Run *coro* on a loop whose clock stands still.

    ``sent_at`` is ``loop.time()`` and its float width is the only part of
    an encoding that differs between two runs of the same agreement.
    """
    loop = asyncio.new_event_loop()
    loop.time = lambda: 1234.5
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


# ----------------------------------------------------------------------
# Savings: arithmetic == re-encoding
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", SPECS, ids=str)
@pytest.mark.parametrize("instance", [None, "op7", ("svc", 7)], ids=repr)
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_savings_match_reencoding_for_every_frame_of_a_run(spec, instance, traced):
    nodes = node_names(spec.n_nodes)
    bus = _CapturingBus()
    runner = AsyncRoundRunner(
        ProtocolSession.byz(spec, nodes, nodes[0], "attack"),
        transport=bus,
        instance_id=instance,
        tracer=Tracer(7) if traced else None,
    )
    asyncio.run(runner.run())
    batches = [(f, n) for f, n in bus.sent if f.kind == BATCH]
    assert batches and len(batches) == len(bus.sent)
    assert all((f.trace is not None) == traced for f, _ in batches)
    for frame, nbytes in batches:
        assert nbytes == len(encode_frame(frame))
        assert batch_bytes_saved(frame) == reference.batch_savings(frame, nbytes)
    total = sum(reference.batch_savings(f, n) for f, n in batches)
    assert runner.metrics.total_batch_bytes_saved == total > 0


def _message(i=0, payload=None):
    return Message(
        "p1", "p2", payload or RelayPayload(path=("S", f"p{i}", "p1"), value="v"), 2, "byz"
    )


@pytest.mark.parametrize(
    "fields",
    [
        dict(mark=True),  # marker-only batch: one MARK became one BATCH
        dict(mark=False),  # empty and unmarked: nothing replaced, nothing saved
        dict(messages=(_message(),), mark=False),
        dict(messages=(_message(),), mark=True),
        dict(messages=tuple(_message(i) for i in range(5)), mark=True),
        dict(messages=tuple(_message(i) for i in range(5)), mark=True, seq=12345),
        dict(messages=(_message(), _message(1)), mark=True, trace="ab12cd34ef56ab78"),
        dict(messages=(_message(), _message(1)), mark=True, instance="op0", seq=3,
             trace="ab12cd34ef56ab78"),
        dict(messages=(_message(payload=[1.5, {"k": (None, True)}]),), mark=True,
             instance=("svc", 1), sent_at=float("inf")),
        dict(messages=(_message(),) * 3, mark=True, source=3, destination=("é", 1),
             round_no=10, sent_at=1e22),
    ],
    ids=lambda fields: ",".join(sorted(fields)),
)
def test_savings_match_reencoding_on_corner_frames(fields):
    base = dict(kind=BATCH, round_no=2, source="p1", destination="p2", sent_at=17.25)
    frame = Frame(**{**base, **fields})
    nbytes = len(encode_frame(frame))
    assert batch_bytes_saved(frame) == reference.batch_savings(frame, nbytes)


def test_an_unmeasured_run_reports_nothing_sent_and_nothing_saved():
    spec = SPECS[0]
    nodes = node_names(spec.n_nodes)
    outcome = asyncio.run(
        run_agreement_async(
            spec, nodes, nodes[0], "attack", transport=LocalBus(measure_bytes=False)
        )
    )
    assert outcome.metrics.total_frames == 16
    assert outcome.metrics.total_bytes == 0
    assert outcome.metrics.total_batch_bytes_saved == 0


# ----------------------------------------------------------------------
# One encode per frame sent, one decode per frame received
# ----------------------------------------------------------------------
@pytest.fixture
def codec_calls(monkeypatch):
    """Count ``encode_frame`` / ``decode_frame`` calls at every use site."""
    from repro.net import transport as transport_module

    calls = {"encode": 0, "decode": 0}
    real_encode, real_decode = codec.encode_frame, codec.decode_frame

    def counting_encode(frame):
        calls["encode"] += 1
        return real_encode(frame)

    def counting_decode(data):
        calls["decode"] += 1
        return real_decode(data)

    monkeypatch.setattr(codec, "encode_frame", counting_encode)
    monkeypatch.setattr(codec, "decode_frame", counting_decode)
    monkeypatch.setattr(transport_module, "encode_frame", counting_encode)
    return calls


@pytest.mark.parametrize("batching", [True, False], ids=["batched", "unbatched"])
def test_local_bus_encodes_each_frame_once_and_decodes_none(codec_calls, batching):
    spec = SPECS[1]
    nodes = node_names(spec.n_nodes)
    outcome = asyncio.run(
        run_agreement_async(
            spec, nodes, nodes[0], "attack", transport=LocalBus(), batching=batching
        )
    )
    frames = outcome.metrics.total_frames
    assert frames == (66 if batching else 324)
    assert codec_calls == {"encode": frames, "decode": 0}


@pytest.mark.parametrize("supervise", [False, True], ids=["plain", "supervised"])
def test_tcp_encodes_and_decodes_each_frame_once(codec_calls, supervise):
    spec = SPECS[1]
    nodes = node_names(spec.n_nodes)
    outcome = asyncio.run(
        run_agreement_async(
            spec, nodes, nodes[0], "attack", transport=TcpTransport(),
            supervise=supervise,
        )
    )
    assert outcome.metrics.total_frames == 66
    assert outcome.metrics.total_timeouts == 0
    assert codec_calls == {"encode": 66, "decode": 66}


# ----------------------------------------------------------------------
# MARK frames are bytes too
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_batched_and_unbatched_byte_totals_reconcile_with_savings(spec):
    """``unbatched - batched == saved + the markers batching never sent``.

    The batched path skips structurally silent links altogether, so the
    unbatched run's MARK frames on those links have no batch to be credited
    to; every other byte of difference is ``batch_bytes_saved``.  Before
    ``record_mark`` metered bytes the unbatched total omitted every marker
    and this could not balance.
    """
    nodes = node_names(spec.n_nodes)

    def run(batching):
        bus = _CapturingBus()
        outcome = _run_pinned(
            run_agreement_async(
                spec, nodes, nodes[0], "attack", transport=bus, batching=batching
            )
        )
        return outcome.metrics, bus.sent

    batched, batched_frames = run(True)
    unbatched, unbatched_frames = run(False)
    links = {(f.round_no, f.source, f.destination) for f, _ in batched_frames}
    unreplaced_marks = sum(
        nbytes
        for frame, nbytes in unbatched_frames
        if frame.kind == MARK
        and (frame.round_no, frame.source, frame.destination) not in links
    )
    assert unbatched.total_bytes == sum(n for _, n in unbatched_frames)
    assert batched.total_bytes == sum(n for _, n in batched_frames)
    assert batched.total_batch_bytes_saved > 0
    assert (
        unbatched.total_bytes - batched.total_bytes
        == batched.total_batch_bytes_saved + unreplaced_marks
    )


# ----------------------------------------------------------------------
# What a received frame costs the event loop
# ----------------------------------------------------------------------
class _LossyBus(LocalBus):
    """``LocalBus`` that loses every frame *lost* says to (all by default)."""

    def __init__(self, lost=lambda frame: True) -> None:
        super().__init__()
        self.lost = lost

    async def send(self, frame) -> int:
        return 0 if self.lost(frame) else await super().send(frame)


def _run_counting(spec, transport, scenario=lambda runner: runner.run()):
    """Run ``scenario(runner)`` on a fresh loop; return the runner, the
    coroutine names of the tasks created meanwhile, and the timer handles
    still scheduled (and not cancelled) when it finished."""
    nodes = node_names(spec.n_nodes)
    runner = AsyncRoundRunner(
        ProtocolSession.byz(spec, nodes, nodes[0], "attack"),
        transport=transport,
        round_timeout=0.05,
    )

    async def main():
        loop = asyncio.get_running_loop()
        created = []

        def factory(loop, coro, **kwargs):
            created.append(coro.__qualname__)
            return asyncio.Task(coro, loop=loop, **kwargs)

        loop.set_task_factory(factory)
        await scenario(runner)
        # Snapshot here: asyncio.run() adds shutdown tasks of its own.
        return list(created), [h for h in loop._scheduled if not h.cancelled()]

    return (runner, *asyncio.run(main()))


@pytest.mark.parametrize(
    "spec,sends,collects", [(SPECS[0], 16, 15), (SPECS[1], 66, 28)], ids=str
)
def test_a_received_frame_costs_no_task_and_a_round_leaves_no_timer(
    spec, sends, collects
):
    """One task per frame sent (the fan-out) and one per node-round (its
    collect, which owns the round's one deadline timer) — none per frame
    received; ``wait_for`` around every ``recv`` used to add one each
    (47 and 160 tasks)."""
    runner, created, timers = _run_counting(spec, LocalBus())
    assert runner.metrics.total_frames == sends
    assert created.count("AsyncRoundRunner._send") == sends
    assert created.count("AsyncRoundRunner._collect") == collects
    assert len(created) == sends + collects == {5: 31, 7: 94}[spec.n_nodes]
    assert timers == []


def test_a_timed_out_round_leaves_no_timer():
    bus = _LossyBus(lambda frame: (frame.source, frame.destination) == ("S", "p1"))
    runner, _, timers = _run_counting(SPECS[0], bus)
    assert runner.metrics.total_timeouts == 1  # p1 rode out the deadline
    assert timers == []


def test_a_cancelled_run_leaves_no_timer():
    async def cancel_mid_collect(runner):
        task = asyncio.ensure_future(runner.run())
        await asyncio.sleep(0.01)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    # Nothing arrives, so every collect is waiting on its deadline.
    _, created, timers = _run_counting(SPECS[0], _LossyBus(), cancel_mid_collect)
    assert created.count("AsyncRoundRunner._collect") == 5
    assert timers == []
