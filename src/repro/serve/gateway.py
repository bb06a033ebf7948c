"""The agreement service: admission control, dispatch, per-instance verdicts.

:class:`AgreementService` is the long-lived front end over an
:class:`~repro.serve.mux.InstanceMux`: clients ``submit`` agreement
instances (a sender and its value, optionally with Byzantine behaviour
assignments), the service runs each through an unmodified
:class:`~repro.net.runner.AsyncRoundRunner` on its own
:class:`~repro.serve.mux.InstanceChannel`, and ``decision`` awaits the
finished :class:`InstanceOutcome` — decisions, per-instance wire metrics,
and the D.1–D.4 verdict judged against the fault set *that instance*
actually suffered (declared behaviours plus the chaos log's per-instance
attribution).

Admission control is a bounded queue in front of a bounded worker pool:
at most ``max_inflight`` instances run concurrently, at most
``queue_limit`` more may wait, and a submit beyond both is rejected with
:class:`~repro.exceptions.AdmissionError` carrying a ``retry_after`` hint
derived from observed instance latencies — backpressure a client can
act on (:func:`~repro.serve.plan.serve_plan` waits it out), not silent
unboundedness.

Robustness: nothing here bounds an instance; its runner's round deadline
does.  One timer per round bounds the sends as well as the collects, so
even a transport whose send never returns costs an instance exactly its
rounds' deadlines, and the verdict is the protocol's own decisions judged
by :func:`~repro.core.conditions.classify`.  The worker slot is freed
when the run ends, like any other.  :meth:`AgreementService.restart_node`
crash-restarts one node's endpoint mid-campaign through the transport's
``restart_endpoint`` — the same path a chaos-scheduled restart takes (see
:meth:`~repro.serve.mux.InstanceMux.restart_node`).

Every decided instance brings its outcome, and with it its recorder, into
the service's aggregate recorder (``NetMetrics.record_instance``: the
aggregate's totals sum those recorders, and its fingerprint lists their
counters keyed and sorted, so it is insensitive to completion order);
:func:`record_service_run` packages the instances the service holds as
one ``mode="serve"`` :class:`~repro.verify.record.RunRecord` that
``repro.verify``'s demux helper can split back into per-instance records
for conformance checking.

A service meant to run indefinitely holds bounded state in one store,
``AgreementService.outcomes`` (the aggregate recorder's ``window``): the
last :data:`OUTCOME_WINDOW` decided instances, after the latest
:data:`HELD_OUTCOMES` held ones — outcomes outside D.1/D.2 that left the
window, and failed instances, which take no window slot.  An outcome
evicted from it has its recorder folded into the service's
:class:`~repro.net.metrics.InstanceTally`, which also counts every
instance as it decides, so a scrape reads every count from the tally.
Instance ids are single-use while their instance is held; see
:meth:`AgreementService.decision` for what an evicted id answers.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from dataclasses import dataclass
from itertools import islice
from math import isfinite
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
)

from repro._slots import slotted
from repro.core.behavior import BehaviorMap
from repro.core.byz import AgreementResult
from repro.core.conditions import OutcomeReport, classify
from repro.core.protocol import ProtocolSession
from repro.core.spec import DegradableSpec
from repro.core.values import Value
from repro.exceptions import (
    AdmissionError,
    ConfigurationError,
    UnknownInstanceError,
)
from repro.net.metrics import InstanceTally, NetMetrics
from repro.net.runner import AsyncRoundRunner
from repro.net.stack import build_stack
from repro.net.transport import LocalBus, Transport
from repro.serve.mux import InstanceMux
from repro.sim.faults import behavior_injectors
from repro.sim.trace import EventTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.chaos.policy import ChaosPolicy
    from repro.obs.events import EventBus
    from repro.verify.record import RunRecord

NodeId = Hashable
InstanceId = Hashable

#: The fault set of an instance nobody was declared faulty in, shared.
_NOBODY: FrozenSet[NodeId] = frozenset()

#: Decided instances whose outcome the service keeps whole, the latest
#: ones: the window.
OUTCOME_WINDOW = 512
#: Instances held beside the window, the latest this many: outcomes
#: outside D.1/D.2 that left it, and failed instances — the instances an
#: operator asks about.
HELD_OUTCOMES = 64


@slotted
@dataclass
class InstanceOutcome:
    """Everything one service-run agreement instance produced."""

    instance_id: InstanceId
    sender: NodeId
    sender_value: Value
    result: AgreementResult
    metrics: NetMetrics
    #: Fault set this instance is judged against: declared behaviour
    #: assignments plus every node the chaos layer charged on *this
    #: instance's* frames (``ChaosLog.afflicted_for``).
    afflicted: FrozenSet[NodeId]
    #: Guarantee tier ``len(afflicted)`` selects: ``byzantine`` /
    #: ``degraded`` / ``none``.
    tier: str
    report: OutcomeReport
    #: Submit-to-decision wall time (monotonic seconds).
    latency: float
    trace: Optional[EventTrace] = None
    #: Always False: the gateway has no watchdog (the round deadline
    #: bounds every instance).  Kept because ``perf/loadgen.py`` reads it.
    watchdogged: bool = False

    @property
    def decisions(self) -> Dict[NodeId, Value]:
        return self.result.decisions

    @property
    def ok(self) -> bool:
        """Whether the paper's contract for this instance's tier held."""
        return self.report.satisfied

    @property
    def agreed(self) -> bool:
        """Whether D.1 or D.2 held: every fault-free receiver agreed."""
        return bool(self.report.d1 or self.report.d2)


@dataclass
class _Job:
    instance_id: InstanceId
    sender: NodeId
    sender_value: Value
    behaviors: Optional[BehaviorMap]
    future: "asyncio.Future"
    submitted_at: float = 0.0


class AgreementService:
    """Multi-instance agreement gateway over one shared transport."""

    def __init__(
        self,
        spec: DegradableSpec,
        nodes: Sequence[NodeId],
        transport: Optional[Transport] = None,
        chaos: Optional["ChaosPolicy"] = None,
        chaos_rng: Optional[random.Random] = None,
        max_inflight: int = 16,
        queue_limit: int = 64,
        round_timeout: float = 5.0,
        batching: bool = True,
        record_trace: bool = True,
        supervise: bool = False,
        events: Optional["EventBus"] = None,
        tracer=None,
    ) -> None:
        if max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if queue_limit < 0:
            raise ConfigurationError(
                f"queue_limit must be >= 0, got {queue_limit}"
            )
        if not (isfinite(round_timeout) and round_timeout > 0):
            raise ConfigurationError(
                f"round_timeout must be > 0 and finite, got {round_timeout}"
            )
        if len(set(nodes)) != spec.n_nodes:
            raise ConfigurationError(
                f"service needs {spec.n_nodes} distinct nodes, got {nodes!r}"
            )
        self.spec = spec
        self.nodes = tuple(nodes)
        # Supervision sits ABOVE chaos (and below the mux): an injected
        # reset or endpoint restart exercises a real re-dial, and the
        # supervisor's seq stamps ride inside every instance's frames so
        # replays dedup across the shared stream.
        base, self.chaos_log = build_stack(
            transport if transport is not None else LocalBus(),
            chaos,
            chaos_rng,
            supervise,
        )
        # The service's recorder carries its optional observers: the event
        # bus (admission, verdicts, link outages) and the span tracer (one
        # admission→verdict span per instance, parenting its runner's
        # round spans).  Zero RNG, no awaits, never in the fingerprint.
        self.mux = InstanceMux(
            base,
            self.nodes,
            NetMetrics(transport=base.name, bus=events, tracer=tracer),
        )
        self.max_inflight = max_inflight
        self.queue_limit = queue_limit
        self.round_timeout = round_timeout
        self.batching = batching
        self.record_trace = record_trace

        #: The one store: decided instances held whole, in decision order
        #: (the held ones outside D.1/D.2, then the window).  It is the
        #: aggregate recorder's window, so each outcome, and the recorder
        #: it carries, is referenced from this one dict.
        self.outcomes: Dict[InstanceId, InstanceOutcome] = (
            self.aggregate_metrics.window
        )
        self.rejected_submits = 0
        #: Futures of the instances not yet decided, and of held failed
        #: ones.
        self._futures: Dict[InstanceId, "asyncio.Future"] = {}
        #: Held instances, oldest first: outcomes outside D.1/D.2 that
        #: left the window, and failed instances.
        self._held: Deque[InstanceId] = deque()
        #: Every decided instance, counted as it decides; the recorders of
        #: the evicted ones, folded.
        self._tally = InstanceTally()
        self._pending: "asyncio.Queue[_Job]" = asyncio.Queue()
        self._workers: List["asyncio.Task"] = []
        #: Submitted-but-unfinished instances (queued + in flight); the
        #: admission bound compares this against
        #: ``max_inflight + queue_limit``.
        self._admitted = 0
        self._instance_counter = 0
        #: The window the retry-after hint averages over; nothing older.
        self._latencies: Deque[float] = deque(maxlen=32)
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Open the shared transport and start the worker pool."""
        if self._started:
            return
        await self.mux.start()
        self._workers = [
            asyncio.ensure_future(self._worker())
            for _ in range(self.max_inflight)
        ]
        self._started = True
        self.aggregate_metrics.publish(
            "service_started",
            nodes=len(self.nodes),
            max_inflight=self.max_inflight,
            queue_limit=self.queue_limit,
        )

    async def close(self) -> None:
        """Drain admitted work, then stop workers and the mux."""
        if self._started:
            await self._pending.join()
        for task in self._workers:
            task.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        await self.mux.stop()
        if self._started:
            self.aggregate_metrics.publish(
                "service_stopped",
                instances=self.decided,
                rejected_submits=self.rejected_submits,
            )
        self._started = False

    async def __aenter__(self) -> "AgreementService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Queue state (exported via repro.obs.prom.metrics_registry)
    # ------------------------------------------------------------------
    @property
    def admitted(self) -> int:
        """Submitted-but-unfinished instances (queued + in flight)."""
        return self._admitted

    @property
    def queue_depth(self) -> int:
        """Admitted instances still waiting for a worker slot."""
        return self._pending.qsize()

    @property
    def inflight(self) -> int:
        """Admitted instances currently holding a worker slot."""
        return max(0, self._admitted - self._pending.qsize())

    @property
    def decided(self) -> int:
        """Instances decided so far, held or evicted."""
        return self._tally.decided

    @property
    def evicted(self) -> int:
        """Decided instances the service no longer holds, counted."""
        return self._tally.evicted

    def tally(self) -> InstanceTally:
        """Every decided instance, counted (live: it runs on)."""
        return self._tally

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(
        self,
        sender: NodeId,
        sender_value: Value,
        behaviors: Optional[BehaviorMap] = None,
        instance_id: Optional[InstanceId] = None,
    ) -> InstanceId:
        """Admit one agreement instance; returns its instance id.

        Raises :class:`~repro.exceptions.AdmissionError` (with a
        ``retry_after`` hint) when ``max_inflight`` instances are active
        and the admission queue already holds ``queue_limit`` more.
        Instance ids are single-use while the service holds their
        instance (undecided, in the window, or held); omit *instance_id*
        for a fresh one, which never collides with a held id.
        """
        if not self._started:
            raise AdmissionError("service is not running (call start())")
        if sender not in self.nodes:
            raise ConfigurationError(
                f"sender {sender!r} is not in the service node set"
            )
        if self._admitted >= self.max_inflight + self.queue_limit:
            self.rejected_submits += 1
            self.aggregate_metrics.publish(
                "instance_rejected",
                admitted=self._admitted,
                retry_after=self.retry_after_hint(),
            )
            raise AdmissionError(
                f"admission queue full ({self.queue_limit} waiting behind "
                f"{self.max_inflight} in flight); retry later",
                retry_after=self.retry_after_hint(),
            )
        if instance_id is None:
            instance_id = f"i{self._instance_counter:04d}"
            while self._holds(instance_id):
                self._instance_counter += 1
                instance_id = f"i{self._instance_counter:04d}"
        self._instance_counter += 1
        if self._holds(instance_id):
            raise ConfigurationError(
                f"instance id {instance_id!r} already submitted; "
                f"instance ids are single-use"
            )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._futures[instance_id] = future
        tracer = self.aggregate_metrics.tracer
        if tracer is not None:
            # The admission→verdict span: opened at submit, closed when
            # the verdict lands, parenting every round span the instance's
            # runner opens (scope registry keyed by instance id).
            span = tracer.begin(
                "instance",
                "gateway",
                instance=instance_id,
                sender=str(sender),
            )
            tracer.set_scope(instance_id, span.span_id)
        self._admitted += 1
        self._pending.put_nowait(
            _Job(
                instance_id=instance_id,
                sender=sender,
                sender_value=sender_value,
                behaviors=behaviors,
                future=future,
                submitted_at=loop.time(),
            )
        )
        self.aggregate_metrics.publish(
            "instance_admitted",
            instance=str(instance_id),
            sender=str(sender),
            queue_depth=self.queue_depth,
        )
        return instance_id

    def _holds(self, instance_id: InstanceId) -> bool:
        return instance_id in self._futures or instance_id in self.outcomes

    async def decision(self, instance_id: InstanceId) -> InstanceOutcome:
        """Await the finished outcome of a submitted instance.

        Answers while the service holds the instance: until it decides,
        then while its outcome is in the window (or held).  An id it does
        not hold — never submitted, or evicted — raises
        :class:`~repro.exceptions.UnknownInstanceError`.
        """
        future = self._futures.get(instance_id)
        if future is not None:
            return await future
        outcome = self.outcomes.get(instance_id)
        if outcome is None:
            raise UnknownInstanceError(
                f"unknown instance {instance_id!r}: not submitted here, or "
                f"decided and evicted from the last {OUTCOME_WINDOW} "
                f"decided instances and the {HELD_OUTCOMES} held"
            )
        return outcome

    async def submit_and_wait(
        self,
        sender: NodeId,
        sender_value: Value,
        behaviors: Optional[BehaviorMap] = None,
        instance_id: Optional[InstanceId] = None,
    ) -> InstanceOutcome:
        iid = self.submit(
            sender, sender_value, behaviors=behaviors, instance_id=instance_id
        )
        return await self.decision(iid)

    def retry_after_hint(self) -> float:
        """Backpressure hint: roughly one queue-drain's worth of seconds."""
        if self._latencies:
            # Same [0.01s, 1s] clamp as the cold path below: a run of slow
            # instances (ones riding out round deadlines, say) must not tell
            # rejected clients to go away for tens of seconds — the hint
            # paces retries, it does not forecast instance runtime.
            mean = sum(self._latencies) / len(self._latencies)
            return min(1.0, max(0.01, mean))
        # No instance has finished yet, so there is no latency history to
        # average; clamp the round deadline into [0.01s, 1s] so a service
        # configured with a generous round_timeout (the 5s default, say)
        # does not tell its very first rejected client to go away for a
        # full deadline window, and a degenerate tiny timeout still yields
        # a non-zero, usable hint.
        return min(1.0, max(0.01, self.round_timeout))

    async def restart_node(self, node: NodeId) -> None:
        """Crash-restart one node's endpoint mid-campaign.

        Delegates to :meth:`~repro.serve.mux.InstanceMux.restart_node`:
        the node's endpoint is restarted with its inbox kept, so any
        queued frames are lost (recorded absence, not a hang) and the node
        hears every later frame.  In-flight instances ride out the lost
        frames to their round deadlines and substitute ``V_d``.
        """
        if node not in self.nodes:
            raise ConfigurationError(
                f"node {node!r} is not in the service node set"
            )
        await self.mux.restart_node(node)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def aggregate_metrics(self) -> NetMetrics:
        """Shared-transport recorder with every decided instance's recorder
        brought in (totals and fingerprint cover them)."""
        return self.mux.metrics

    def service_trace(self) -> EventTrace:
        """The stamped events of every decided instance the service holds
        (:attr:`outcomes`), one merged trace.

        Instances appear in decision order; concatenation keeps each
        one's internal event order intact, which is all the
        demux-and-verify path needs (record fingerprints sort lines).
        """
        merged = EventTrace()
        for outcome in self.outcomes.values():
            if outcome.trace is not None:
                for event in outcome.trace.events:
                    merged.record(event)
        return merged

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            job = await self._pending.get()
            try:
                outcome = await self._run_instance(job)
            except asyncio.CancelledError:
                if not job.future.done():
                    job.future.cancel()
                raise
            except Exception as exc:  # surfaced to the awaiting client
                if not job.future.done():
                    job.future.set_exception(exc)
                # Its future answers decision() while it is held.
                self._hold(job.instance_id)
            else:
                if not job.future.done():
                    job.future.set_result(outcome)
                # The outcome answers decision() from now on.
                del self._futures[job.instance_id]
            finally:
                self._admitted -= 1
                self._pending.task_done()

    def _hold(self, instance_id: InstanceId) -> None:
        """Hold a failed instance or an outcome that left the window; past
        :data:`HELD_OUTCOMES` the oldest held one is evicted."""
        held = self._held
        held.append(instance_id)
        if len(held) > HELD_OUTCOMES:
            self._evict(held.popleft())

    def _evict(self, instance_id: InstanceId) -> None:
        """The one eviction site: a failed instance's future is dropped;
        an outcome leaves the store, its recorder folded into the tally."""
        if self._futures.pop(instance_id, None) is None:
            self._tally.fold(self.outcomes.pop(instance_id).metrics)

    async def _run_instance(self, job: _Job) -> InstanceOutcome:
        loop = asyncio.get_running_loop()
        aggregate = self.aggregate_metrics
        channel = self.mux.channel(job.instance_id, opened_at=loop.time())
        session = ProtocolSession.byz(
            self.spec,
            self.nodes,
            job.sender,
            job.sender_value,
            tag=f"byz:{job.instance_id}",
        )
        runner = AsyncRoundRunner(
            session,
            transport=channel,
            injectors=behavior_injectors(job.behaviors),
            round_timeout=self.round_timeout,
            batching=self.batching,
            record_trace=self.record_trace,
            instance_id=job.instance_id,
            events=aggregate.bus,
            tracer=aggregate.tracer,
        )
        result = await runner.run()
        latency = loop.time() - job.submitted_at
        declared = frozenset(job.behaviors) if job.behaviors else _NOBODY
        afflicted = declared
        if self.chaos_log is not None:
            afflicted = declared | self.chaos_log.afflicted_for(
                job.instance_id
            )
        tier = self.spec.guarantee_for(len(afflicted))
        report = classify(result, afflicted, self.spec)
        outcome = InstanceOutcome(
            instance_id=job.instance_id,
            sender=job.sender,
            sender_value=job.sender_value,
            result=result,
            metrics=runner.metrics,
            afflicted=afflicted,
            tier=tier,
            report=report,
            latency=latency,
            trace=runner.trace,
        )
        if aggregate.tracer is not None:
            span = aggregate.tracer.scope_span(job.instance_id)
            if span is not None:
                aggregate.tracer.end(span, tier=tier, ok=report.satisfied)
        self._latencies.append(latency)
        self._tally.decide(tier, report.satisfied, latency)
        aggregate.publish(
            "instance_decided",
            instance=str(job.instance_id),
            tier=tier,
            ok=report.satisfied,
            afflicted=len(afflicted),
            latency=latency,
        )
        aggregate.record_instance(job.instance_id, outcome)
        if self._tally.decided > OUTCOME_WINDOW:
            # The window's oldest outcome, after the held ones, leaves it:
            # it is held if outside D.1/D.2, else evicted.  From the first
            # one on, the aggregate reads the tally as its fold.
            outcomes = self.outcomes
            held = len(outcomes) - OUTCOME_WINDOW - 1
            oldest = next(islice(outcomes, held, None))
            aggregate.folded = self._tally
            if outcomes[oldest].agreed:
                self._evict(oldest)
            else:
                self._hold(oldest)
        return outcome


# ----------------------------------------------------------------------
# Auditing
# ----------------------------------------------------------------------
def record_service_run(service: AgreementService) -> "RunRecord":
    """Package a finished service run as one ``mode="serve"`` RunRecord.

    The merged trace interleaves every instance's stamped events; the
    header's ``meta["instances"]`` lists each instance's sender, value and
    fault set so :func:`repro.verify.demux_record` can rebuild one
    auditable per-instance record per entry.  The top-level sender /
    value / faulty fields describe the *first* instance (the header needs
    one); per-instance truth always comes from the meta listing.  The
    record covers the instances the service holds; once some have left
    the window, ``meta["evicted"]`` counts them.
    """
    from repro.verify.record import RunRecord

    if not service.outcomes:
        raise ConfigurationError(
            "service has no finished instances; nothing to record"
        )
    outcomes = list(service.outcomes.values())
    instances_meta = [
        {
            "id": outcome.instance_id,
            "sender": outcome.sender,
            "sender_value": outcome.sender_value,
            "faulty": sorted(outcome.afflicted, key=repr),
            "tag": f"byz:{outcome.instance_id}",
        }
        for outcome in outcomes
    ]
    meta: Dict[str, object] = {"instances": instances_meta}
    if service.evicted:
        meta["evicted"] = service.evicted
    first = outcomes[0]
    union_faulty = frozenset().union(*(o.afflicted for o in outcomes))
    return RunRecord(
        spec=service.spec,
        nodes=service.nodes,
        sender=first.sender,
        sender_value=first.sender_value,
        faulty=union_faulty,
        trace=service.service_trace(),
        mode="serve",
        transport=service.aggregate_metrics.transport or "local",
        batched=service.batching,
        tag="byz",
        meta=meta,
    )
