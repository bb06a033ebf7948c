"""What the wire path costs: at most one serialization per frame, honest byte counts.

* a frame on ``LocalBus`` is sized by ``codec.frame_size``, never encoded:
  every count equals its encoded length, and the savings of a batch summed
  from sizes equal what re-encoding every replaced frame gives (that
  formula lives in ``reference_codec.batch_savings``);
* a frame that crosses a wire is encoded exactly once — and on TCP decoded
  exactly once; on ``LocalBus`` it is neither encoded nor decoded;
* MARK frames are metered in ``bytes_sent`` like every other frame, so
  batched and unbatched byte totals reconcile with the savings computed
  from the captured batches;
* a frame costs the event loop no task and no timer, sent or received:
  a round collects in the run's own task and creates one task only per
  node that must wait (none in a fault-free run), and arms one deadline
  timer, which bounds the sends as well as the collects — in a plain run
  and in a served instance alike, since nothing above the runner arms a
  timer — and no timer is left scheduled however the run ends;
* a round's frames leave in link order (``engine.order`` source-major,
  destination-minor), one after another, from one call site, on every
  transport stack.
"""

import asyncio
import sys
from types import SimpleNamespace

import pytest

from repro.core.protocol import ProtocolSession
from repro.core.spec import DegradableSpec
from repro.exceptions import TransportError
from repro.explore.clock import run_on_virtual_clock
from repro.net import codec
from repro.net.chaos.policy import ChaosPolicy
from repro.net.codec import BATCH, DATA, MARK, Frame, encode_frame, frame_size
from repro.net.runner import AsyncRoundRunner, run_agreement_async
from repro.net.supervision import MAX_ATTEMPTS, backoff_delay
from repro.net.tcp import TcpTransport
from repro.net.transport import LocalBus, TransportLayer
from repro.serve import AgreementService
from repro.sim.messages import Message, RelayPayload
from repro.sim.trace import EventKind
from repro.trace import Tracer

from tests.conftest import node_names
from tests.net import reference_codec as reference

SPECS = [DegradableSpec(m=1, u=2, n_nodes=5), DegradableSpec(m=2, u=2, n_nodes=7)]


class _CapturingBus(LocalBus):
    """``LocalBus`` that keeps every ``(frame, nbytes)`` it carried."""

    def __init__(self, measure_bytes: bool = True) -> None:
        super().__init__(measure_bytes)
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


def _sized_savings(frame):
    """What BATCH *frame* saves over the DATA frames + MARK it replaces,
    from sizes alone: those carry the batch's envelope but no seq/tc."""
    envelope = dict(
        round_no=frame.round_no,
        source=frame.source,
        destination=frame.destination,
        sent_at=frame.sent_at,
        instance=frame.instance,
    )
    replaced = [Frame(DATA, message=m, **envelope) for m in frame.messages]
    if frame.mark:
        replaced.append(Frame(MARK, **envelope))
    return max(0, sum(map(frame_size, replaced)) - frame_size(frame))


# ----------------------------------------------------------------------
# Savings: sizes == re-encoding
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
        assert nbytes == len(reference.encode_frame(frame))
        assert _sized_savings(frame) == reference.batch_savings(frame, nbytes)
    assert sum(reference.batch_savings(f, n) for f, n in batches) > 0
    assert runner.metrics.total_bytes == sum(n for _, n in batches)


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
    nbytes = len(reference.encode_frame(frame))
    assert frame_size(frame) == len(encode_frame(frame)) == nbytes
    assert _sized_savings(frame) == reference.batch_savings(frame, nbytes)


def test_an_unmeasured_run_reports_nothing_sent_and_nothing_saved():
    spec = SPECS[0]
    nodes = node_names(spec.n_nodes)
    bus = _CapturingBus(measure_bytes=False)
    outcome = asyncio.run(
        run_agreement_async(spec, nodes, nodes[0], "attack", transport=bus)
    )
    assert outcome.metrics.total_frames == 16
    assert outcome.metrics.total_bytes == 0
    assert [n for _, n in bus.sent] == [0] * 16
    assert sum(reference.batch_savings(f, n) for f, n in bus.sent) == 0


# ----------------------------------------------------------------------
# One encode per frame sent, one decode per frame received
# ----------------------------------------------------------------------
@pytest.fixture
def codec_calls(monkeypatch):
    """Count ``encode_frame`` / ``decode_frame`` calls at every use site:
    the codec and every ``repro`` module that imported either by name."""
    calls = {"encode": 0, "decode": 0}
    real_encode, real_decode = codec.encode_frame, codec.decode_frame

    def counting_encode(frame):
        calls["encode"] += 1
        return real_encode(frame)

    def counting_decode(data):
        calls["decode"] += 1
        return real_decode(data)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro":
            continue
        if getattr(module, "encode_frame", None) is real_encode:
            monkeypatch.setattr(module, "encode_frame", counting_encode)
        if getattr(module, "decode_frame", None) is real_decode:
            monkeypatch.setattr(module, "decode_frame", counting_decode)
    return calls


@pytest.mark.parametrize("batching", [True, False], ids=["batched", "unbatched"])
def test_local_bus_encodes_no_frame_and_decodes_none(codec_calls, batching):
    spec = SPECS[1]
    nodes = node_names(spec.n_nodes)
    outcome = asyncio.run(
        run_agreement_async(
            spec, nodes, nodes[0], "attack", transport=LocalBus(), batching=batching
        )
    )
    assert outcome.metrics.total_frames == (66 if batching else 324)
    assert outcome.metrics.total_bytes > 0
    assert codec_calls == {"encode": 0, "decode": 0}


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
    to; every other byte of difference is what the captured batches saved
    (``reference_codec.batch_savings``).  Before ``record_mark`` metered
    bytes the unbatched total omitted every marker and this could not
    balance.
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
    saved = sum(reference.batch_savings(f, n) for f, n in batched_frames)
    assert saved > 0
    assert unbatched.total_bytes - batched.total_bytes == saved + unreplaced_marks


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


async def _counting(scenario):
    """Await *scenario* with the running loop counting; return the
    coroutine names of the tasks created meanwhile, how many timers were
    armed, and the timer handles still scheduled (and not cancelled)
    when it finished."""
    loop = asyncio.get_running_loop()
    created, armed = [], []
    call_at = loop.call_at

    def counting_call_at(*args, **kwargs):
        armed.append(args[0])
        return call_at(*args, **kwargs)

    def factory(loop, coro, **kwargs):
        created.append(coro.__qualname__)
        return asyncio.Task(coro, loop=loop, **kwargs)

    loop.call_at = counting_call_at
    loop.set_task_factory(factory)
    try:
        await scenario
    finally:
        del loop.call_at
        loop.set_task_factory(None)
    return created, len(armed), [h for h in loop._scheduled if not h.cancelled()]


def _run_counting(spec, transport, scenario=lambda runner: runner.run()):
    """Run ``scenario(runner)`` on a fresh loop under :func:`_counting`;
    return the runner and what was counted."""
    nodes = node_names(spec.n_nodes)
    runner = AsyncRoundRunner(
        ProtocolSession.byz(spec, nodes, nodes[0], "attack"),
        transport=transport,
        round_timeout=0.05,
    )

    async def main():
        # Counted here: asyncio.run() adds shutdown tasks of its own.
        return await _counting(scenario(runner))

    return (runner, *asyncio.run(main()))


@pytest.mark.parametrize(
    "spec,sends,rounds", [(SPECS[0], 16, 3), (SPECS[1], 66, 4)], ids=str
)
def test_a_received_frame_costs_no_task_and_a_round_leaves_no_timer(
    spec, sends, rounds
):
    """No task and one deadline timer per round — none per frame sent,
    none per frame received, none per node: every frame is already queued
    when the round collects.  The gathered fan-out used to add one task
    per frame sent (31 and 94 tasks), ``wait_for`` around every ``recv``
    one more each (47 and 160), a timer per node-round (8 and 18 timers),
    and a collect task per node-round (15 and 28 tasks)."""
    runner, created, armed, timers = _run_counting(spec, LocalBus())
    assert runner.metrics.total_frames == sends
    assert created == []
    assert armed == rounds == runner.metrics.total_rounds
    assert timers == []


@pytest.mark.parametrize("spec,rounds", [(SPECS[0], 3), (SPECS[1], 4)], ids=str)
def test_a_served_instance_costs_its_collects_and_one_timer_per_round(spec, rounds):
    """The gateway awaits the runner directly and the mux pumps have filed
    every frame before the round collects: a served instance creates no
    task, as a plain run (a ``wait_for`` watchdog added one task and one
    timer, 16/29 tasks and 9/19 timers; a collect per node-round 15/28)."""
    nodes = node_names(spec.n_nodes)

    async def main():
        async with AgreementService(spec, nodes, round_timeout=5.0) as service:
            counted = await _counting(service.submit_and_wait(nodes[0], "attack"))
            (outcome,) = service.outcomes.values()
            return (outcome, *counted)

    outcome, created, armed, timers = asyncio.run(main())
    assert outcome.ok and outcome.metrics.total_timeouts == 0
    assert created == []
    assert armed == rounds == outcome.metrics.total_rounds
    assert timers == []


def test_a_timed_out_round_leaves_no_timer():
    bus = _LossyBus(lambda frame: (frame.source, frame.destination) == ("S", "p1"))
    runner, _, _, timers = _run_counting(SPECS[0], bus)
    assert runner.metrics.total_timeouts == 1  # p1 rode out the deadline
    assert timers == []


def test_only_a_node_that_must_wait_gets_a_collect_task():
    """S->p1 is lost: p1 alone waits, in round 1, and it alone gets a task;
    every other node-round files what has already arrived."""
    bus = _LossyBus(lambda frame: (frame.source, frame.destination) == ("S", "p1"))
    waited = []

    def noting(runner):
        collect = runner._collect

        def _collect(node, round_no, *rest):
            waited.append((round_no, node))
            return collect(node, round_no, *rest)

        runner._collect = _collect
        return runner.run()

    runner, created, armed, _ = _run_counting(SPECS[0], bus, noting)
    assert created == ["AsyncRoundRunner._collect"]
    assert waited == [(1, "p1")]
    assert armed == 3 and runner.metrics.total_timeouts == 1


def test_a_cancelled_run_leaves_no_timer():
    async def cancel_mid_collect(runner):
        task = asyncio.ensure_future(runner.run())
        await asyncio.sleep(0.01)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    # Nothing arrives, so every receiver is waiting on its deadline; the
    # sender expects nobody in round 1 and gets no task.
    _, created, _, timers = _run_counting(SPECS[0], _LossyBus(), cancel_mid_collect)
    assert created.count("AsyncRoundRunner._collect") == 4
    assert timers == []


# ----------------------------------------------------------------------
# One send order
# ----------------------------------------------------------------------
class _Wire(TransportLayer):
    """Notes every frame on its way down: when ``send`` was entered, the
    order frames reach ``inner`` (after ``delay(frame)`` seconds), and the
    line of the runner that called ``AsyncRoundRunner._send``."""

    layer = "wire"

    def __init__(self, inner, delay=lambda frame: 0.0) -> None:
        super().__init__(inner)
        self.delay = delay
        self.entered = []  # (round, source, destination, loop.time())
        self.reached = []  # (round, kind, source, destination)
        self.sites = set()

    async def send(self, frame) -> int:
        caller = sys._getframe(1)
        while caller.f_code.co_name != "_send":
            caller = caller.f_back
        site = caller.f_back  # None when _send is a task of its own
        self.sites.add(site and (site.f_code.co_name, site.f_lineno))
        now = asyncio.get_running_loop().time()
        self.entered.append((frame.round_no, frame.source, frame.destination, now))
        pause = self.delay(frame)
        if pause:
            await asyncio.sleep(pause)
        self.reached.append(
            (frame.round_no, frame.kind, frame.source, frame.destination)
        )
        return await self.inner.send(frame)

    @property
    def links(self):
        return [(r, source, destination) for r, _, source, destination in self.reached]


class _RefusingBus(LocalBus):
    """``LocalBus`` on which one directed link never connects."""

    def __init__(self, link) -> None:
        super().__init__()
        self.link = link

    async def send(self, frame) -> int:
        if (frame.source, frame.destination) == self.link:
            raise TransportError(f"link {self.link} refused")
        return await super().send(frame)


def _agreement(transport, spec=SPECS[0], **kwargs):
    nodes = node_names(spec.n_nodes)
    return run_agreement_async(
        spec, nodes, nodes[0], "attack", transport=transport, **kwargs
    )


def test_frames_leave_in_link_order_however_long_each_send_takes():
    """Earlier links take longer: gathered sends would complete — reach
    the wire, write their ``frame-sent`` lines — in reverse."""
    spec = SPECS[0]
    nodes = node_names(spec.n_nodes)
    wire = _Wire(LocalBus())
    runner = AsyncRoundRunner(
        ProtocolSession.byz(spec, nodes, nodes[0], "attack"),
        transport=wire,
        round_timeout=5.0,
    )
    rank = {node: i for i, node in enumerate(runner.engine.order)}
    wire.delay = lambda frame: 0.001 * (
        25 - 5 * rank[frame.source] - rank[frame.destination]
    )
    run_on_virtual_clock(runner.run())
    link_order = sorted(wire.links, key=lambda f: (f[0], rank[f[1]], rank[f[2]]))
    assert len(link_order) == 16
    assert wire.links == link_order
    sent = runner.trace.of_kind(EventKind.FRAME_SENT)
    assert [(e.round_no, e.source, e.destination) for e in sent] == link_order
    assert runner.metrics.total_timeouts == 0


def test_both_wire_modes_send_from_one_line_with_or_without_a_chaos_layer():
    sites = set()
    for batching in (True, False):
        plain, chaotic = _Wire(LocalBus()), _Wire(LocalBus())
        run_on_virtual_clock(_agreement(plain, batching=batching))
        run_on_virtual_clock(
            _agreement(chaotic, batching=batching, chaos=ChaosPolicy())
        )
        assert plain.reached == chaotic.reached
        assert len(plain.reached) == (16 if batching else 16 + 20 * 3)
        sites |= plain.sites | chaotic.sites
    assert len(sites) == 1 and {name for name, _ in sites} == {"run"}


def test_tcp_hands_the_wire_the_sequence_local_bus_does():
    local = _Wire(LocalBus())
    run_on_virtual_clock(_agreement(local, SPECS[1]))
    for _ in range(2):
        tcp = _Wire(TcpTransport())
        asyncio.run(_agreement(tcp, SPECS[1]))
        assert tcp.links == local.links
    assert len(local.links) == 66


def test_a_retrying_link_holds_the_rest_of_its_round_for_the_backoff_budget():
    """Supervision without chaos: the refused link's re-dials are awaited
    in line, so its round's later links wait for them — at most the
    backoff budget, nowhere near the round deadline."""
    wire = _Wire(_RefusingBus(("S", "p1")))
    outcome = run_on_virtual_clock(
        _agreement(wire, supervise=True, round_timeout=5.0)
    )
    assert outcome.metrics.total_send_failures == 1
    assert outcome.metrics.total_timeouts == 1  # p1 on S, round 1
    received = outcome.trace.of_kind(EventKind.FRAME_RECV)
    assert len(received) == 15
    assert {(e.source, e.destination) for e in received if e.round_no == 1} == {
        ("S", "p2"),
        ("S", "p3"),
        ("S", "p4"),
    }
    slowest, fastest = (
        sum(
            backoff_delay(attempt, SimpleNamespace(random=lambda: draw))
            for attempt in range(1, MAX_ATTEMPTS)
        )
        for draw in (1.0, 0.0)
    )
    first_round = [entry for entry in wire.entered if entry[0] == 1]
    opened = first_round[0][3]
    assert [entry[1:3] for entry in first_round] == [("S", "p1")] * 4 + [
        ("S", "p2"),
        ("S", "p3"),
        ("S", "p4"),
    ]
    held = [at - opened for *_, at in first_round[4:]]
    assert all(fastest <= wait <= slowest < 0.1 for wait in held)
