"""Async round runner: drives BYZ over a real transport, deadline by deadline.

:class:`AsyncRoundRunner` executes one
:class:`~repro.core.protocol.ProtocolSession` over a
:class:`~repro.net.transport.Transport`, closing each round with a real
deadline instead of a lock-step barrier.  The protocol half of a round is
not written here: the runner owns a
:class:`~repro.sim.engine.SynchronousEngine` over the complete topology and
calls its :meth:`~repro.sim.engine.SynchronousEngine.emit`, so stepping
order, the assumption-(c) checks, the injector chain and the protocol-level
trace lines are the synchronous engine's own.  What is here is what the
paper says differs — frames, the wire, the deadline:

1. the engine steps the processes on the inboxes collected last round and
   returns the messages that survived the fault injectors;
2. surviving frames go out over the transport, one ``send`` per frame; a
   send that raises is a recorded loss, never a retry — healing a link is
   the supervision layer's job, below the runner;
3. every node then emits an end-of-round marker to every peer (unless an
   injector's ``mutes_marker`` withholds it: a crashed node says nothing);
4. each node collects its inbox until it holds markers from all peers or
   the deadline expires — inline, in the run's own task, from what has
   already arrived; a task only for a node that must wait.  Whatever did
   not arrive is simply absent — the protocol's ingest resolves each
   expected-but-missing relay path to ``V_d``, which is model assumption
   (b) ("the absence of a message can be detected") realized by an actual
   timeout over an actual wire.  The
   deadline is one timer per round, armed before the first send, and it
   bounds the sends too: one still in flight is cut off and, with every
   frame not yet sent, metered as lost.

Wire modes: by default the runner runs **batched** — steps 2 and 3
collapse into one ``BATCH`` frame per directed link per round (all of the
link's DATA messages plus the end-of-round marker).  Collection then
waits only on the protocol's *expected* sources for the round
(:meth:`~repro.core.protocol.ProtocolSession.expected_sources`) instead of
on every peer's marker, so structurally silent links carry nothing at all.
A batch that fails to send is one link's absence — its receiver resolves
the missing paths to ``V_d`` exactly as with per-message losses.
``batching=False`` keeps the original one-frame-per-message path (full
marker mesh); both modes share one wire format and are pinned
decision-identical by the equivalence suite.  A wire mode is a *framing*
function; the round's frames then leave through the one send loop in
:meth:`AsyncRoundRunner.run`, one after another in link order, on every
transport stack — the model orders nothing inside a round, and one order
keeps same-seed runs byte-for-byte reproducible.

Determinism: each collected inbox is put in the synchronous engine's
delivery order before it is handed over, so for every scenario in which no
honest frame misses its deadline the decisions, classification verdicts
and substitution counts are identical between the two runtimes — the
equivalence suite in ``tests/net`` pins this down.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, replace
from math import isfinite
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.behavior import BehaviorMap
from repro.core.byz import AgreementResult
from repro.core.protocol import ProtocolSession
from repro.core.spec import DegradableSpec
from repro.core.values import Value
from repro.exceptions import ConfigurationError, TransportError
from repro.net.codec import BATCH, DATA, MARK, Frame
from repro.net.metrics import NetMetrics
from repro.net.stack import build_stack
from repro.net.transport import LocalBus, Transport
from repro.sim.engine import FaultInjector, SynchronousEngine
from repro.sim.faults import behavior_injectors
from repro.sim.messages import Message, delivery_order
from repro.sim.network import Topology
from repro.sim.trace import EventKind, EventTrace, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.net.chaos.accounting import ChaosLog
    from repro.net.chaos.policy import ChaosPolicy
    from repro.obs.events import EventBus
    from repro.trace import Span, Tracer

NodeId = Hashable


class _RoundDeadline:
    """One round's one timer: when it fires it cancels every task in
    :attr:`waiting` — the run's own task while it sends, then the collect
    task of each node still waiting.  A dict, not a set: cancelled
    collects resume in node order, so same-seed runs stay byte-identical."""

    __slots__ = ("at", "expired", "waiting", "timer")

    def __init__(self, loop: asyncio.AbstractEventLoop, at: float) -> None:
        self.at, self.expired = at, False
        self.waiting: Dict["asyncio.Task", None] = {}
        self.timer = loop.call_at(at, self._expire)

    def _expire(self) -> None:
        self.expired = True
        for task in self.waiting:
            task.cancel()

    def ended(self, task: "asyncio.Task") -> bool:
        """Whether *task*'s ``CancelledError`` is this deadline's alone: the
        timer fired and nobody else cancelled *task* in the same loop turn
        (3.11+ keeps count) — a caller giving up on ``run()`` is re-raised."""
        uncancel = getattr(task, "uncancel", None)
        return self.expired and (uncancel is None or uncancel() == 0)


@dataclass
class NetRunOutcome:
    """Everything one async run produced: the verdict and the wire story."""

    result: AgreementResult
    metrics: NetMetrics
    #: Chaos event log, present when the run was executed under a
    #: :class:`~repro.net.chaos.policy.ChaosPolicy` (None otherwise).
    chaos: Optional["ChaosLog"] = None
    #: Canonical execution trace (protocol + wire events), present unless
    #: the run was started with ``record_trace=False``.  Feed it to
    #: :mod:`repro.verify` for offline conformance checking.
    trace: Optional[EventTrace] = None

    @property
    def decisions(self) -> Dict[NodeId, Value]:
        return self.result.decisions


class AsyncRoundRunner:
    """Round-by-round protocol driver over an async transport."""

    def __init__(
        self,
        session: ProtocolSession,
        transport: Optional[Transport] = None,
        injectors: Optional[Sequence[FaultInjector]] = None,
        round_timeout: float = 5.0,
        batching: bool = True,
        record_trace: bool = True,
        instance_id: Optional[Hashable] = None,
        events: Optional["EventBus"] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        if not (isfinite(round_timeout) and round_timeout > 0):
            raise ConfigurationError(
                f"round_timeout must be > 0 and finite, got {round_timeout}"
            )
        self.session = session
        self.transport = transport if transport is not None else LocalBus()
        self.round_timeout = round_timeout
        self.batching = batching
        #: Multiplexing identity: set when this runner drives one instance
        #: of a :mod:`repro.serve` service.  Every outgoing frame carries it
        #: (version-2 envelope) and every trace event is stamped with it so
        #: service traces can be demultiplexed offline.  ``None`` keeps the
        #: legacy single-instance wire format and trace shape.
        self.instance_id = instance_id
        # The run's recorder carries its bus and tracer: the transport
        # stack records, publishes and traces what only it can see
        # (decode errors, injected chaos, link healing) through it.
        self.metrics = NetMetrics(
            transport=self.transport.name, bus=events, tracer=tracer
        )
        self.transport.attach_metrics(self.metrics)
        #: Optional span tracer (:mod:`repro.trace`).  Purely
        #: observational: recording draws zero RNG and never awaits, so a
        #: same-seed run is identical with it attached or not — the
        #: tracing-determinism suite pins this.
        self.tracer = tracer
        self._round_span: Optional["Span"] = None
        #: Canonical execution trace: protocol events are logged by the
        #: processes themselves (via :meth:`ProtocolSession.attach_trace`)
        #: and by :attr:`engine`, wire events by this runner.  Same schema
        #: as the synchronous engine's trace, plus the wire-level kinds.
        self.trace: Optional[EventTrace] = (
            EventTrace(instance=instance_id) if record_trace else None
        )
        session.attach_trace(self.trace)
        #: The protocol half of every round: the synchronous engine itself,
        #: over the complete topology, writing into this runner's trace.
        self.engine = SynchronousEngine(
            Topology.complete(session.nodes),
            session.processes,
            injectors,
            record_trace=False,
        )
        self.engine.trace = self.trace
        #: Frame metas by shape: one dict per distinct frame shape in this
        #: run, shared by all its trace lines (:meth:`_frame_meta`).
        self._frame_metas: Dict[tuple, dict] = {}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def run(self) -> AgreementResult:
        """Run the protocol to completion and return the agreement result."""
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        session = self.session
        await self.transport.open(list(session.nodes))
        order = self.engine.order
        framing = self._frame_batched if self.batching else self._frame_unbatched
        executed = 0
        deadline: Optional[_RoundDeadline] = None
        label = None if self.instance_id is None else str(self.instance_id)
        try:
            inboxes: Dict[NodeId, List[Message]] = {n: [] for n in order}
            for round_no in range(1, session.total_rounds + 1):
                if session.all_decided() and not any(inboxes.values()):
                    break
                self.metrics.round(round_no)
                self.metrics.publish(
                    "round_started", round=round_no, instance=label
                )
                self._record_expected(round_no)
                if self.tracer is not None:
                    self._round_span = self.tracer.begin(
                        "round",
                        "runner",
                        parent=self.tracer.scope_parent(self.instance_id),
                        instance=self.instance_id,
                        round_no=round_no,
                    )
                survivors, dropped = self.engine.emit(
                    round_no,
                    {n: delivery_order(inbox) for n, inbox in inboxes.items()},
                )
                for _ in range(dropped):
                    self.metrics.record_drop(round_no)
                round_started = loop.time()
                deadline = _RoundDeadline(
                    loop, round_started + self.round_timeout
                )
                self.transport.round_opened(
                    round_no, deadline.at, self.instance_id
                )
                frames, expected = framing(round_no, survivors)
                deadline.waiting[task] = None
                frames = iter(frames)
                for frame in frames:
                    await self._send(frame, round_no, deadline)
                    if deadline.expired:
                        # Cut off: every frame not yet sent is lost too.
                        for _ in frames:
                            self.metrics.record_send_failure(round_no)
                del deadline.waiting[task]
                inboxes = await self._collect_round(round_no, deadline, expected)
                deadline.timer.cancel()
                self.metrics.record_round_duration(
                    round_no, loop.time() - round_started
                )
                if self.tracer is not None and self._round_span is not None:
                    self.tracer.end(
                        self._round_span, messages=len(survivors)
                    )
                    self._round_span = None
                self.metrics.publish(
                    "round_closed",
                    round=round_no,
                    messages=len(survivors),
                    instance=label,
                )
                executed += 1
        finally:
            if deadline is not None:
                deadline.timer.cancel()
            await self.transport.close()
        self.metrics.substitutions = session.substitutions
        return session.collect_result(
            messages=self.engine.emitted, rounds=executed
        )

    # ------------------------------------------------------------------
    # Round phases
    # ------------------------------------------------------------------
    def _record_expected(self, round_no: int) -> None:
        """Publish each node's structural wait-set for this round.

        This is the oracle's seam for telling *structural* silence (a link
        the round schedule leaves empty) apart from *losses* (chaos drops,
        deadline misses): anything a node expected here but never filed is
        an absence that must show up as a ``defaulted`` substitution.  The
        table is the session's shared one, not a copy.
        """
        table = self.session.wait_sets(round_no)
        self.metrics.record_expected(round_no, table)
        if self.trace is not None:
            for node, sources in table.items():
                self.trace.record(
                    TraceEvent(round_no, EventKind.EXPECTED, node, None, sources)
                )

    def _frame_batched(
        self, round_no: int, survivors: Sequence[Message]
    ) -> Tuple[Iterable[Frame], Dict[NodeId, Set[NodeId]]]:
        """Coalesce the round into one BATCH frame per directed link.

        Groups *survivors* by ``(source, destination)`` (send order
        preserved inside each batch), folds the end-of-round marker into
        the batch's ``mark`` flag (cleared when an injector mutes the
        source's markers, so receivers still ride out the deadline for
        crashed nodes), and skips links that carry no data *and* are
        not expected by the protocol's round schedule — structurally
        silent links cost zero frames.  Every frame is built and its
        ``coalesced`` line recorded before the first one is sent, and all
        of them carry one ``sent_at``: the loop time the round's frames
        were built at, read once, so a round's envelopes are equal and
        :func:`~repro.net.codec.frame_size` sizes them once.

        Returns the frames in link order (source-major) and each node's
        pending-source set for collection: the sources it should wait on
        before closing the round early.
        """
        sent_at = asyncio.get_running_loop().time()
        order = self.engine.order
        groups: Dict[tuple, List[Message]] = {}
        for message in survivors:
            key = (message.source, message.destination)
            groups.setdefault(key, []).append(message)
        expected: Dict[NodeId, Set[NodeId]] = {
            node: set(self.session.expected_sources(round_no, node))
            for node in order
        }
        frames: List[Frame] = []
        for source in order:
            muted = any(
                i.mutes_marker(round_no, source) for i in self.engine.injectors
            )
            for destination in order:
                if destination == source:
                    continue
                messages = groups.get((source, destination), ())
                if not messages and (muted or source not in expected[destination]):
                    continue
                frame = Frame(
                    kind=BATCH,
                    round_no=round_no,
                    source=source,
                    destination=destination,
                    messages=tuple(messages),
                    mark=not muted,
                    sent_at=sent_at,
                    instance=self.instance_id,
                )
                frames.append(frame)
                if self.trace is not None:
                    self.trace.record(
                        TraceEvent(
                            round_no, EventKind.COALESCED, source, destination,
                            None, "", self._frame_meta(frame, coalesced=True),
                        )
                    )
        return frames, expected

    def _frame_unbatched(
        self, round_no: int, survivors: Sequence[Message]
    ) -> Tuple[Iterable[Frame], Dict[NodeId, Set[NodeId]]]:
        """One DATA frame per message, then the full marker mesh.

        All DATA in survivor order, then one MARK per directed link,
        source-major, unless an injector mutes the source — generated
        lazily, so each frame's ``sent_at`` is stamped as it leaves.
        Every node waits on every peer's marker.
        """
        loop = asyncio.get_running_loop()
        order, injectors = self.engine.order, self.engine.injectors

        def frames() -> Iterable[Frame]:
            for message in survivors:
                yield Frame(
                    kind=DATA,
                    round_no=round_no,
                    source=message.source,
                    destination=message.destination,
                    message=message,
                    sent_at=loop.time(),
                    instance=self.instance_id,
                )
            for source in order:
                if any(i.mutes_marker(round_no, source) for i in injectors):
                    continue
                for destination in order:
                    if destination == source:
                        continue
                    yield Frame(
                        kind=MARK,
                        round_no=round_no,
                        source=source,
                        destination=destination,
                        sent_at=loop.time(),
                        instance=self.instance_id,
                    )

        return frames(), {
            node: {n for n in order if n != node} for node in order
        }

    async def _send(
        self, frame: Frame, round_no: int, deadline: _RoundDeadline
    ) -> None:
        """Send one frame, exactly once, and meter what became of it.

        This is the one place a lost frame — ``send`` raised
        :class:`TransportError`, or *deadline* cut it off — turns into a
        recorded absence: no ``FRAME_SENT``, no frame or byte counts, one
        send failure, span ``ok=False``; the receiver rides out the
        deadline and substitutes ``V_d`` (assumption (b)).  The runner
        never retries; a :class:`~repro.net.supervision.SupervisedTransport`
        below it re-dials within its own budget and raises only once it
        gives up, so a lost frame is metered the same with or without it.
        Awaited frame by frame from the one send loop in :meth:`run`:
        each retrying link holds the round's later links for at most that
        backoff budget.
        """
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(
                "send",
                "runner",
                parent=getattr(self._round_span, "span_id", None),
                instance=self.instance_id,
                round_no=round_no,
                source=frame.source,
                destination=frame.destination,
                kind=frame.kind,
            )
            # Trace context rides the wire: every layer the frame passes
            # through downstream charges its work to this send span.
            frame = replace(frame, trace=span.span_id)
        try:
            nbytes = await self.transport.send(frame)
        except (TransportError, asyncio.CancelledError) as exc:
            cancelled = isinstance(exc, asyncio.CancelledError)
            if cancelled and not deadline.ended(asyncio.current_task()):
                raise
            self.metrics.record_send_failure(round_no)
            if span is not None:
                self.tracer.end(span, ok=False)
            return
        if frame.kind == DATA:
            self.metrics.record_send(round_no, nbytes)
        elif frame.kind == MARK:
            self.metrics.record_mark(round_no, nbytes)
        elif frame.kind == BATCH:
            self.metrics.record_batch(round_no, len(frame.messages), nbytes)
        self._trace_frame(EventKind.FRAME_SENT, round_no, frame)
        if span is not None:
            self.tracer.end(span, ok=True)

    def _trace_frame(
        self,
        kind: EventKind,
        round_no: int,
        frame: Frame,
        note: str = "",
        extra_meta: Optional[dict] = None,
    ) -> None:
        if self.trace is None:
            return
        meta = self._frame_meta(frame)
        if extra_meta:
            meta = {**meta, **extra_meta}
        self.trace.record(
            TraceEvent(
                round_no, kind, frame.source, frame.destination, None, note, meta
            )
        )

    def _frame_meta(self, frame: Frame, coalesced: bool = False) -> dict:
        """A frame line's meta, one dict per frame shape in this run.

        ``{"frame": kind}``, plus ``messages`` and ``mark`` for a BATCH; a
        ``coalesced`` line's is ``messages`` and ``mark`` alone.  Shared
        only when the kind is exactly a ``str`` and the mark exactly a
        ``bool`` (the count is a ``len``), so ``mark=1`` never aliases
        ``mark=True``; any other frame gets a fresh dict.
        """
        kind = frame.kind
        batch = coalesced or kind == BATCH
        count, mark = (len(frame.messages), frame.mark) if batch else (0, False)
        shared = kind.__class__ is str and mark.__class__ is bool
        key = (coalesced, kind, count, mark)
        meta = self._frame_metas.get(key) if shared else None
        if meta is None:
            meta = {} if coalesced else {"frame": kind}
            if batch:
                meta["messages"] = count
                meta["mark"] = mark
            if shared:
                self._frame_metas[key] = meta
        return meta

    def _file_frame(
        self,
        frame: Frame,
        round_no: int,
        pending: Set[NodeId],
        inbox: List[Message],
    ) -> None:
        """Meter one received frame; file its messages, resolve its source."""
        if frame.round_no != round_no:
            self.metrics.record_late(round_no)
            self._trace_frame(
                EventKind.LATE_FRAME,
                round_no,
                frame,
                extra_meta={"frame_round": frame.round_no},
            )
            return
        loop = asyncio.get_running_loop()
        self._trace_frame(EventKind.FRAME_RECV, round_no, frame)
        if frame.kind == MARK:
            pending.discard(frame.source)
        elif frame.kind == BATCH:
            latency = max(0.0, loop.time() - frame.sent_at)
            for message in frame.messages:
                inbox.append(message)
                self.metrics.record_latency(round_no, latency)
            if frame.mark:
                pending.discard(frame.source)
        elif frame.message is not None:
            inbox.append(frame.message)
            self.metrics.record_latency(
                round_no, max(0.0, loop.time() - frame.sent_at)
            )
        else:
            self.metrics.record_late(round_no)

    async def _collect_round(
        self,
        round_no: int,
        deadline: _RoundDeadline,
        expected: Dict[NodeId, Set[NodeId]],
    ) -> Dict[NodeId, List[Message]]:
        """Collect every node's inbox for the round, in ``engine.order``.

        Each node's *expected* set is what it waits on: the sources whose
        end-of-round signal (MARK frame, or a BATCH frame's ``mark`` flag)
        closes its round early — every peer on the unbatched path, only
        the protocol's expected sources on the batched one.  A source that
        never resolves is recorded as a timeout; any of its frames still
        in flight stay undelivered for this round, and the protocol
        resolves the corresponding expected paths to ``V_d`` — the
        real-wire realization of assumption (b).  Frames from other rounds
        — stale DATA, stale BATCH, *and stale MARK* — are metered as late
        frames, so chaos-induced lateness shows up in campaign reports
        whichever frame kind it hit.

        A frame is in its inbox from the call that landed it — the bus's
        ``send``, a socket callback, a service mux's demux — with no task
        between.  The run yields once, so whatever its sends made ready
        runs first; then each node files what has already arrived
        (:meth:`_drain`) in the run's own task.  If a node must still
        wait, the run yields once more and drains those nodes again: a
        socket's bytes land in the loop turn after they were sent, where
        a collect task would have taken its first step.  Only a node that
        must wait after that gets a :meth:`_collect` task.  Those are the
        only tasks a round creates; ``docs/runtime.md`` §7 has the cost.
        """
        await asyncio.sleep(0)
        inboxes: Dict[NodeId, List[Message]] = {}
        waiting = []
        for node in self.engine.order:
            pending = expected[node]
            inbox = inboxes[node] = []
            span = None
            if self.tracer is not None:
                span = self.tracer.begin(
                    "collect",
                    "runner",
                    parent=getattr(self._round_span, "span_id", None),
                    instance=self.instance_id,
                    round_no=round_no,
                    destination=node,
                    waiting=len(pending),
                )
            if self._drain(node, round_no, deadline, pending, inbox):
                waiting.append((node, pending, inbox, span))
            else:
                self._close_collect(node, round_no, pending, inbox, span)
        waits = []
        if waiting:
            await asyncio.sleep(0)
            for node, pending, inbox, span in waiting:
                if self._drain(node, round_no, deadline, pending, inbox):
                    waits.append(self._collect(
                        node, round_no, deadline, pending, inbox, span
                    ))
                else:
                    self._close_collect(node, round_no, pending, inbox, span)
        await asyncio.gather(*waits)
        return inboxes

    def _drain(
        self,
        node: NodeId,
        round_no: int,
        deadline: _RoundDeadline,
        pending: Set[NodeId],
        inbox: List[Message],
    ) -> bool:
        """File the frames already queued for *node*
        (:meth:`~repro.net.transport.Transport.recv_nowait`), by
        :meth:`_collect`'s rules; True when *node* must still wait."""
        if not pending or deadline.expired:
            return False
        loop = asyncio.get_running_loop()
        while pending and loop.time() < deadline.at:
            frame = self.transport.recv_nowait(node)
            if frame is None:
                return True
            self._file_frame(frame, round_no, pending, inbox)
        return False

    async def _collect(
        self,
        node: NodeId,
        round_no: int,
        deadline: _RoundDeadline,
        pending: Set[NodeId],
        inbox: List[Message],
        span: Optional["Span"],
    ) -> None:
        """Wait on *node*'s inbox until *pending* resolves or the deadline.

        The deadline is the single place absence is decided; a collect arms
        no timer of its own.  It awaits ``transport.recv`` directly while
        registered on *deadline*, whose timer cancels it: a cancel
        :meth:`_RoundDeadline.ended` claims is the round closing (a frame
        just handed over stays queued and surfaces a round late), any
        other is re-raised.  A collect that starts after the deadline
        awaits nothing.
        """
        loop = asyncio.get_running_loop()
        if not deadline.expired:
            task = asyncio.current_task()
            deadline.waiting[task] = None
            try:
                while pending and loop.time() < deadline.at:
                    frame = await self.transport.recv(node)
                    self._file_frame(frame, round_no, pending, inbox)
            except asyncio.CancelledError:
                if not deadline.ended(task):
                    raise
            finally:
                del deadline.waiting[task]
        self._close_collect(node, round_no, pending, inbox, span)

    def _close_collect(
        self,
        node: NodeId,
        round_no: int,
        pending: Set[NodeId],
        inbox: List[Message],
        span: Optional["Span"],
    ) -> None:
        """File every source still *pending* as a timeout; end the span."""
        for peer in sorted(pending, key=str):
            self.metrics.record_timeout(round_no, node, peer)
            if span is not None:
                self.tracer.event(
                    span, "timeout", peer=str(peer), node=str(node)
                )
            if self.trace is not None:
                self.trace.record(
                    TraceEvent(
                        round_no, EventKind.TIMEOUT, peer, node, None,
                        "peer unresolved at round deadline",
                    )
                )
        if span is not None:
            self.tracer.end(span, delivered=len(inbox), unresolved=len(pending))


# ----------------------------------------------------------------------
# High-level entry point
# ----------------------------------------------------------------------
async def run_agreement_async(
    spec: DegradableSpec,
    nodes: Sequence[NodeId],
    sender: NodeId,
    sender_value: Value,
    behaviors: Optional[BehaviorMap] = None,
    transport: Optional[Transport] = None,
    extra_injectors: Optional[Sequence[FaultInjector]] = None,
    round_timeout: float = 5.0,
    chaos: Optional["ChaosPolicy"] = None,
    chaos_rng: Optional[random.Random] = None,
    batching: bool = True,
    record_trace: bool = True,
    supervise: bool = False,
    events: Optional["EventBus"] = None,
    tracer: Optional["Tracer"] = None,
) -> NetRunOutcome:
    """Run one m/u-degradable agreement over an async transport.

    The async counterpart of
    :func:`repro.core.protocol.execute_degradable_protocol`: the same
    fault parameters (*behaviors*, then *extra_injectors*, assembled in
    that order and run by the same engine code), same result shape — plus
    the :class:`~repro.net.metrics.NetMetrics` recorder for the wire story.
    Defaults to :class:`~repro.net.transport.LocalBus` and the batched
    wire path (one frame per directed link per round); ``batching=False``
    selects the legacy one-frame-per-message path.  The two are
    decision-identical — only the wire story differs.

    With *chaos* set, the transport is wrapped in a
    :class:`~repro.net.chaos.transport.ChaosTransport` applying that
    policy; every draw comes from *chaos_rng* (default:
    ``random.Random(chaos.seed)``) and the outcome carries the full
    :class:`~repro.net.chaos.accounting.ChaosLog` for fault accounting.

    With ``supervise=True`` the stack is additionally wrapped in a
    :class:`~repro.net.supervision.SupervisedTransport` *above* chaos, so
    injected connection resets and endpoint restarts are healed by real
    re-dials while unhealable outages degrade into metered absences.

    *events* (an :class:`~repro.obs.events.EventBus`) and *tracer* (a
    :class:`~repro.trace.Tracer`) are built into the run's recorder,
    which reaches the runner and every layer of the transport stack:
    round/link lifecycle events are published as they happen, and
    round/collect/send spans, supervision heal spans and chaos injection
    events are recorded with deterministic ids.  Neither draws RNG or
    enters the determinism fingerprint — observing a run never changes
    it.
    """
    wire, chaos_log = build_stack(
        transport if transport is not None else LocalBus(),
        chaos,
        chaos_rng,
        supervise,
    )
    session = ProtocolSession.byz(spec, nodes, sender, sender_value)
    runner = AsyncRoundRunner(
        session,
        transport=wire,
        injectors=[*behavior_injectors(behaviors), *(extra_injectors or ())],
        round_timeout=round_timeout,
        batching=batching,
        record_trace=record_trace,
        events=events,
        tracer=tracer,
    )
    result = await runner.run()
    return NetRunOutcome(
        result=result,
        metrics=runner.metrics,
        chaos=chaos_log,
        trace=runner.trace,
    )
