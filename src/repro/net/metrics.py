"""Per-round accounting for the async runtime.

:class:`NetMetrics` records, per engine round: message and byte counts,
delivery latencies, injector drops, send failures, late frames and
deadline timeouts — plus the run-wide count of ``V_d`` substitutions the
protocol performed for absent messages.  The recorder is surfaced through
:class:`~repro.net.runner.NetRunOutcome` so experiments and the CLI can
print it next to the agreement verdict.

Injected chaos (:mod:`repro.net.chaos`) is accounted separately from
organic wire trouble: ``chaos_*`` counters record what the chaos layer
*did* (dropped/duplicated/reordered/corrupted frames, partition rounds,
crash events), while ``timeouts``/``send_failures`` keep
recording what the runtime *observed*.  ``decode_errors`` counts poisoned
byte streams a transport discarded (one per dropped connection).
:meth:`counters` flattens every integer counter into one dict — the
fingerprint the determinism suite compares across same-seed runs.

Latency percentiles use nearest-rank on the pooled sample; with the whole
runtime in one OS process, the send/receive timestamps share one monotonic
clock, so the numbers are genuine one-way frame latencies.

A service aggregate holds the recorders of the decided instances its
service keeps, in :attr:`NetMetrics.window`; the service bounds that
window and folds what it evicts into its :class:`InstanceTally` (running
sums and histogram buckets), so the aggregate's size and the cost of
reading it do not grow with the service's history.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Sequence, Tuple,
)

from repro._slots import slotted
from repro.obs.stats import percentiles

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import EventBus
    from repro.trace import Tracer

NodeId = Hashable

Link = Tuple[str, str]

#: Fixed histogram buckets for one-way frame latencies (seconds).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Fixed histogram buckets for round / instance durations (seconds).
DURATION_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


@slotted
@dataclass
class LinkMetrics:
    """Per-directed-link supervision counters (:mod:`repro.net.supervision`).

    A link entry exists only once something happened on the link — lazily
    created by the first recorded event — so clean runs carry no link
    noise.  Wall-clock-dependent fields (outage seconds) are kept for
    operators but excluded from the determinism fingerprint;
    only event *counts* whose triggers are seeded (reconnects, dedups) are
    fingerprinted.
    """

    #: Times the link's connection was re-established after it had already
    #: carried traffic (first-ever dials are not reconnects).
    reconnects: int = 0
    #: Inbound frames dropped as replays of an already-seen sequence number.
    deduped: int = 0
    #: Send attempts the transport failed with a connection-level error.
    errors: int = 0
    #: Outage windows the supervisor rode out (healed or abandoned).
    outages: int = 0
    #: Total wall-clock seconds spent inside those outage windows.
    outage_seconds: float = 0.0


@slotted
@dataclass
class RoundMetrics:
    """Counters for a single engine round."""

    round_no: int
    #: Protocol messages handed to the transport (post-injector survivors).
    #: In batched mode each BATCH frame contributes its coalesced message
    #: count, so this stays comparable across wire modes.
    messages_sent: int = 0
    #: Bytes of every frame the runner sent — DATA, BATCH and MARK alike
    #: (0 for unmeasured transports).
    bytes_sent: int = 0
    #: Wire frames the runner successfully sent (DATA + MARK + BATCH).
    frames_sent: int = 0
    #: BATCH frames among those (0 on the unbatched path).
    frames_batched: int = 0
    #: Wall-clock seconds from first send to the end of collection.
    duration: float = 0.0
    #: Messages removed by fault injectors before reaching the transport.
    dropped: int = 0
    #: Frames whose one send raised (observed as absence by the receiver).
    send_failures: int = 0
    #: (receiver, peer) pairs whose end-of-round marker missed the deadline.
    timeouts: int = 0
    #: Data frames that arrived after their round had already closed.
    late_frames: int = 0
    #: Frames the chaos layer deliberately lost (incl. partition/crash).
    chaos_drops: int = 0
    #: Frames the chaos layer delivered twice.
    chaos_dups: int = 0
    #: Frames the chaos layer held back for delayed redelivery.
    chaos_reorders: int = 0
    #: Frames the chaos layer corrupted in flight.
    chaos_corruptions: int = 0
    #: One-way delivery latencies (seconds) of data frames this round.
    latencies: List[float] = field(default_factory=list)
    #: Per-node structural wait-sets: the sources each node's round can,
    #: by the protocol's round schedule, receive data from.  Published so
    #: offline checkers can tell structural silence from losses.  A
    #: runner's rounds share the session's table
    #: (:meth:`~repro.core.protocol.ProtocolSession.wait_sets`): read-only.
    expected_sources: Dict[NodeId, Tuple[NodeId, ...]] = field(
        default_factory=dict
    )


#: A round's fingerprint counters, in the order :meth:`NetMetrics.counters`
#: lists them (see :func:`_round_values`).
_ROUND_FINGERPRINT: Tuple[str, ...] = (
    "messages_sent", "frames_sent", "frames_batched", "dropped",
    "send_failures", "timeouts", "late_frames", "chaos_drops", "chaos_dups",
    "chaos_reorders", "chaos_corruptions", "delivered", "expected_links",
)


@lru_cache(maxsize=64)
def _round_keys(round_no: int) -> Tuple[str, ...]:
    """The fingerprint keys of round *round_no*: ``r<n>.<counter>``."""
    return tuple(f"r{round_no}.{name}" for name in _ROUND_FINGERPRINT)


def _round_values(entry: RoundMetrics) -> Tuple[int, ...]:
    """One round's fingerprint counters, in :data:`_ROUND_FINGERPRINT` order."""
    return (
        entry.messages_sent,
        entry.frames_sent,
        entry.frames_batched,
        entry.dropped,
        entry.send_failures,
        entry.timeouts,
        entry.late_frames,
        entry.chaos_drops,
        entry.chaos_dups,
        entry.chaos_reorders,
        entry.chaos_corruptions,
        len(entry.latencies),
        sum(len(sources) for sources in entry.expected_sources.values()),
    )


class Buckets:
    """Observations folded into fixed histogram buckets.

    ``counts[i]`` counts the values in ``(bounds[i-1], bounds[i]]``, the
    last entry those above every bound; ``total`` is their sum, in fold
    order.  :meth:`repro.obs.prom.Exposition.histogram` renders them
    beside the observations still held whole.
    """

    __slots__ = ("bounds", "counts", "total")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0

    def add(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value


class InstanceTally:
    """A service's decided instances, counted: its one running fold.

    :meth:`decide` counts an instance as it decides: ``decided``, its
    guarantee tier in ``tiers``, ``satisfied`` if its contract held, and
    its submit-to-decision latency in ``instance_latencies``.  :meth:`fold`
    takes in the recorder of an instance the service evicts: ``evicted``
    counts them, ``counters`` sums their :meth:`NetMetrics.counters` key
    by key, ``bytes_sent`` and ``rounds`` are the two totals the
    fingerprint leaves out, and their latency and (non-zero)
    round-duration samples live on as histogram buckets only.
    """

    __slots__ = (
        "decided", "tiers", "satisfied", "instance_latencies", "evicted",
        "rounds", "round_numbers", "bytes_sent", "counters", "latencies",
        "durations",
    )

    def __init__(self) -> None:
        self.decided = 0
        self.tiers: Dict[str, int] = dict.fromkeys(
            ("byzantine", "degraded", "none"), 0
        )
        self.satisfied = 0
        self.instance_latencies = Buckets(DURATION_BUCKETS)
        self.evicted = 0
        self.rounds = 0
        self.round_numbers: set = set()
        self.bytes_sent = 0
        self.counters: Dict[str, int] = {}
        self.latencies = Buckets(LATENCY_BUCKETS)
        self.durations = Buckets(DURATION_BUCKETS)

    def decide(self, tier: str, satisfied: bool, latency: float) -> None:
        """Count one decided instance."""
        self.decided += 1
        self.tiers[tier] += 1
        self.satisfied += satisfied
        self.instance_latencies.add(latency)

    def fold(self, recorder: "NetMetrics") -> None:
        """Fold an evicted instance's own recorder in."""
        self.evicted += 1
        self.rounds += len(recorder.rounds)
        counters = self.counters
        for key, value in recorder._head().items():
            counters[key] = counters.get(key, 0) + value
        for round_no, entry in recorder.rounds.items():
            self.round_numbers.add(round_no)
            for key, value in zip(_round_keys(round_no), _round_values(entry)):
                counters[key] = counters.get(key, 0) + value
            self.bytes_sent += entry.bytes_sent
            if entry.duration > 0.0:
                self.durations.add(entry.duration)
            for latency in entry.latencies:
                self.latencies.add(latency)

    def total(self, counter: str) -> int:
        """One :class:`RoundMetrics` counter, summed over every folded round."""
        if counter == "bytes_sent":
            return self.bytes_sent
        return sum(
            self.counters.get(f"r{round_no}.{counter}", 0)
            for round_no in self.round_numbers
        )


def _round_total(counter: str) -> property:
    """Read-only total of one :class:`RoundMetrics` counter over a
    recorder's own rounds and those of every instance folded into it."""

    def total(self: "NetMetrics") -> int:
        value = sum(getattr(entry, counter) for entry in self.all_rounds())
        if self.folded is not None:
            value += self.folded.total(counter)
        return value

    return property(total)


class NetMetrics:
    """Run-wide metrics recorder for one async agreement execution.

    Also the run's observer handle: built with its optional event *bus*
    and span *tracer*, which every transport layer it is attached to
    reaches through it.  Neither may change :meth:`counters`.
    """

    __slots__ = (
        "transport", "rounds", "substitutions", "decode_errors",
        "partition_rounds", "crash_events", "window", "folded",
        "stray_frames", "links", "endpoint_restarts", "link_resets", "bus",
        "tracer",
    )

    def __init__(
        self,
        transport: str = "",
        bus: Optional["EventBus"] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.transport = transport
        self.rounds: Dict[int, RoundMetrics] = {}
        #: ``V_d`` substitutions performed by the protocol (assumption (b)).
        self.substitutions = 0
        #: Poisoned byte streams a transport discarded (one per connection).
        self.decode_errors = 0
        #: Engine rounds during which at least one partition was severed.
        self.partition_rounds = 0
        #: Node crash onsets the chaos layer executed.
        self.crash_events = 0
        #: The decided instances of a multiplexed service run
        #: (:mod:`repro.serve`) whose recorders are held whole, in decision
        #: order: instance id → what :meth:`record_instance` was handed,
        #: whose ``metrics`` is the *instance's own* recorder.  A service
        #: shares this dict as its ``outcomes`` and evicts from it.  Every
        #: ``total_*`` figure sums this recorder's rounds, theirs and
        #: :attr:`folded`'s.  Single-agreement runs leave this empty.
        self.window: Dict[Hashable, Any] = {}
        #: The service's tally once its window first overflowed: the sums
        #: of the recorders evicted from :attr:`window`.  None before.
        self.folded: Optional[InstanceTally] = None
        #: Frames the service demux routed to a retired (already decided
        #: and garbage-collected) or never-registered instance.
        self.stray_frames = 0
        #: Per-directed-link supervision counters, lazily created by the
        #: first recorded link event (:mod:`repro.net.supervision`).
        self.links: Dict[Link, LinkMetrics] = {}
        #: Node endpoints that were killed and restarted mid-run.
        self.endpoint_restarts = 0
        #: Scheduled hard-resets of pooled connections the chaos layer
        #: (or an operator) executed.
        self.link_resets = 0
        #: Observability event bus (:mod:`repro.obs.events`), or None.
        #: Recording methods that mark lifecycle transitions publish to it
        #: via :meth:`publish`; with no bus every publish is a no-op, so
        #: an unobserved run pays one ``None`` check per event.
        self.bus = bus
        #: Span tracer (:mod:`repro.trace`), or None.
        self.tracer = tracer

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def publish(self, kind: str, **data: object) -> None:
        """Publish one observability event if a bus is attached."""
        bus = self.bus
        if bus is not None:
            bus.publish(kind, **data)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def round(self, round_no: int) -> RoundMetrics:
        if round_no not in self.rounds:
            self.rounds[round_no] = RoundMetrics(round_no=round_no)
        return self.rounds[round_no]

    def record_send(self, round_no: int, nbytes: int) -> None:
        entry = self.round(round_no)
        entry.messages_sent += 1
        entry.bytes_sent += nbytes
        entry.frames_sent += 1

    def record_mark(self, round_no: int, nbytes: int) -> None:
        entry = self.round(round_no)
        entry.bytes_sent += nbytes
        entry.frames_sent += 1

    def record_batch(self, round_no: int, n_messages: int, nbytes: int) -> None:
        entry = self.round(round_no)
        entry.messages_sent += n_messages
        entry.bytes_sent += nbytes
        entry.frames_sent += 1
        entry.frames_batched += 1

    def record_round_duration(self, round_no: int, seconds: float) -> None:
        self.round(round_no).duration = seconds

    def record_drop(self, round_no: int) -> None:
        self.round(round_no).dropped += 1

    def record_send_failure(self, round_no: int) -> None:
        self.round(round_no).send_failures += 1

    def record_timeout(self, round_no: int, receiver: NodeId, peer: NodeId) -> None:
        self.round(round_no).timeouts += 1

    def record_expected(
        self, round_no: int, table: Dict[NodeId, Tuple[NodeId, ...]]
    ) -> None:
        """Publish the round's wait-set table (shared, read-only)."""
        self.round(round_no).expected_sources = table

    def record_late(self, round_no: int) -> None:
        self.round(round_no).late_frames += 1

    def record_latency(self, round_no: int, seconds: float) -> None:
        self.round(round_no).latencies.append(seconds)

    def record_chaos_drop(self, round_no: int) -> None:
        self.round(round_no).chaos_drops += 1

    def record_chaos_dup(self, round_no: int) -> None:
        self.round(round_no).chaos_dups += 1

    def record_chaos_reorder(self, round_no: int) -> None:
        self.round(round_no).chaos_reorders += 1

    def record_chaos_corruption(self, round_no: int) -> None:
        self.round(round_no).chaos_corruptions += 1

    def record_decode_error(self) -> None:
        self.decode_errors += 1

    def record_stray_frame(self) -> None:
        self.stray_frames += 1
        self.publish("stray_frame", total=self.stray_frames)

    def record_instance(self, instance_id: Hashable, entry: Any) -> None:
        """Bring one decided instance's recorder into this run.

        Called by the service gateway when an instance decides, with its
        outcome; *entry* may be a bare recorder too (a recorder is its own
        :attr:`metrics`).  Nothing is copied: totals and the fingerprint
        are derived from ``entry.metrics`` on demand.  Because
        :meth:`counters` lists the instances sorted by the text of their
        id, the aggregate fingerprint is insensitive to instance
        *completion order* — two same-seed service runs fingerprint
        identically even though the event loop interleaves them freely.
        The caller bounds :attr:`window`.
        """
        self.window[instance_id] = entry

    @property
    def metrics(self) -> "NetMetrics":
        """This recorder: a bare recorder is its own :attr:`window` entry."""
        return self

    def record_partition_round(self) -> None:
        self.partition_rounds += 1

    def record_crash_event(self) -> None:
        self.crash_events += 1

    # ------------------------------------------------------------------
    # Link supervision (repro.net.supervision)
    # ------------------------------------------------------------------
    def link(self, source: NodeId, destination: NodeId) -> LinkMetrics:
        """The (lazily created) counter entry for one directed link."""
        key = (str(source), str(destination))
        if key not in self.links:
            self.links[key] = LinkMetrics()
        return self.links[key]

    def record_reconnect(self, source: NodeId, destination: NodeId) -> None:
        self.link(source, destination).reconnects += 1
        self.publish(
            "link_reconnect", source=str(source), destination=str(destination)
        )

    def record_dedup(self, source: NodeId, destination: NodeId) -> None:
        self.link(source, destination).deduped += 1

    def record_link_error(self, source: NodeId, destination: NodeId) -> None:
        self.link(source, destination).errors += 1

    def record_outage(
        self, source: NodeId, destination: NodeId, seconds: float
    ) -> None:
        entry = self.link(source, destination)
        entry.outages += 1
        entry.outage_seconds += max(0.0, seconds)

    def record_endpoint_restart(self) -> None:
        self.endpoint_restarts += 1
        self.publish("endpoint_restart", total=self.endpoint_restarts)

    def record_link_reset(self) -> None:
        self.link_resets += 1

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def _recorders(self) -> List["NetMetrics"]:
        """The recorders of the instances held whole, in decision order."""
        return [entry.metrics for entry in self.window.values()]

    def all_rounds(self) -> List[RoundMetrics]:
        """Every round entry of this recorder and of the window's recorders
        (an evicted instance's rounds live on as :attr:`folded` sums)."""
        return [
            entry
            for recorder in (self, *self._recorders())
            for entry in recorder.rounds.values()
        ]

    @property
    def instances_folded(self) -> int:
        """Decided instances folded in: the window's plus the evicted."""
        evicted = 0 if self.folded is None else self.folded.evicted
        return len(self.window) + evicted

    @property
    def total_rounds(self) -> int:
        """Engine rounds executed.

        A service aggregate runs no round itself — its own round entries
        only hold what the shared chaos layer did — so once instances are
        folded in, theirs are the rounds that count.
        """
        folded = sum(len(r.rounds) for r in self._recorders())
        if self.folded is not None:
            folded += self.folded.rounds
        return folded or len(self.rounds)

    @property
    def total_substitutions(self) -> int:
        """``V_d`` substitutions of this run and of every folded instance."""
        evicted = 0
        if self.folded is not None:
            evicted = self.folded.counters.get("substitutions", 0)
        return self.substitutions + evicted + sum(
            r.substitutions for r in self._recorders()
        )

    total_messages = _round_total("messages_sent")
    total_bytes = _round_total("bytes_sent")
    #: Wire frames successfully sent — the batching win shows here.
    total_frames = _round_total("frames_sent")
    total_frames_batched = _round_total("frames_batched")
    total_timeouts = _round_total("timeouts")
    total_send_failures = _round_total("send_failures")
    total_dropped = _round_total("dropped")
    total_late_frames = _round_total("late_frames")
    total_chaos_drops = _round_total("chaos_drops")
    total_chaos_dups = _round_total("chaos_dups")
    total_chaos_reorders = _round_total("chaos_reorders")
    total_chaos_corruptions = _round_total("chaos_corruptions")

    def round_durations(self) -> List[float]:
        """Per-round wall-clock durations (seconds), in round order —
        this recorder's, then each window instance's (an evicted one's
        are in ``folded.durations``)."""
        return [
            recorder.rounds[r].duration
            for recorder in (self, *self._recorders())
            for r in sorted(recorder.rounds)
        ]

    @property
    def total_reconnects(self) -> int:
        return sum(link.reconnects for link in self.links.values())

    @property
    def total_deduped(self) -> int:
        return sum(link.deduped for link in self.links.values())

    @property
    def total_outages(self) -> int:
        return sum(link.outages for link in self.links.values())

    @property
    def total_chaos_events(self) -> int:
        """Every chaos perturbation this run: frame-level plus crashes."""
        return (
            self.total_chaos_drops
            + self.total_chaos_dups
            + self.total_chaos_reorders
            + self.total_chaos_corruptions
            + self.crash_events
        )

    def counters(self) -> Dict[str, int]:
        """Every integer counter, flattened — the determinism fingerprint.

        Deliberately excludes wall-clock-dependent values: latency samples
        (only their count is included, as ``delivered``) and byte counts
        (frame encodings embed the float ``sent_at`` timestamp, whose JSON
        width varies run to run).  Two same-seed runs of a deterministic
        scenario must produce equal dicts; the chaos determinism suite
        pins exactly that.

        Every value is audited to be an ``int`` before the dict is
        returned: a wall-clock-derived float (``outage_seconds``,
        round durations) silently folded in — e.g. via a
        :meth:`record_instance` sub-counter — would make same-seed
        fingerprints diverge in a maximally confusing way, so the leak
        fails loudly at the source instead.

        A folded instance contributes its own recorder's ``counters()``
        under ``inst.<id>.``; the ``total_*`` properties are the place
        that sums across instances.  Once the service's window has
        overflowed (:attr:`folded` is set), the per-instance keys give way
        to ``folded.instances`` and ``folded.<key>``: each key of the
        instances' fingerprints summed over every folded instance, evicted
        or not — still insensitive to completion order.
        """
        out = self._head()
        folded = self.folded
        if folded is None:
            window = self.window
            for instance_id in sorted(window, key=str):
                folded_counters = window[instance_id].metrics.counters()
                for key, value in sorted(folded_counters.items()):
                    out[f"inst.{instance_id}.{key}"] = value
        else:
            sums = dict(folded.counters)
            for recorder in self._recorders():
                for key, value in recorder.counters().items():
                    sums[key] = sums.get(key, 0) + value
            out["folded.instances"] = self.instances_folded
            for key in sorted(sums):
                out[f"folded.{key}"] = sums[key]
        for round_no in sorted(self.rounds):
            out.update(
                zip(_round_keys(round_no), _round_values(self.rounds[round_no]))
            )
        for key, value in out.items():
            if type(value) is not int:
                raise TypeError(
                    f"fingerprint counter {key!r} is {value!r} "
                    f"({type(value).__name__}); only ints may enter the "
                    f"determinism fingerprint — wall-clock leakage?"
                )
        return out

    def _head(self) -> Dict[str, int]:
        """The fingerprint's run-wide counters and its link counters."""
        out: Dict[str, int] = {
            "substitutions": self.substitutions,
            "decode_errors": self.decode_errors,
            "partition_rounds": self.partition_rounds,
            "crash_events": self.crash_events,
            "stray_frames": self.stray_frames,
            "endpoint_restarts": self.endpoint_restarts,
            "link_resets": self.link_resets,
        }
        # Link counters: only seeded-deterministic event counts, and only
        # for links where those events happened — an entry created by an
        # error or outage alone must not perturb the fingerprint.
        for (source, destination) in sorted(self.links):
            entry = self.links[(source, destination)]
            prefix = f"link.{source}.{destination}."
            if entry.reconnects:
                out[prefix + "reconnects"] = entry.reconnects
            if entry.deduped:
                out[prefix + "deduped"] = entry.deduped
        return out

    def latency_percentiles(self) -> Dict[str, float]:
        """Pooled one-way latency percentiles, nearest-rank, in seconds.

        Pools this recorder's samples and the window's; an evicted
        instance's samples are kept as histogram buckets only.  Delegates
        to :func:`repro.obs.stats.percentiles` — the one canonical
        nearest-rank implementation.
        """
        pooled: List[float] = []
        for entry in self.all_rounds():
            pooled.extend(entry.latencies)
        return percentiles(pooled, {"p50": 0.50, "p90": 0.90, "p99": 0.99})

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Plain-text per-round table plus the run summary."""
        headers = (
            "round", "msgs", "frames", "bytes",
            "dropped", "timeouts", "late",
        )
        rows: List[Tuple[str, ...]] = [headers]
        for round_no in sorted(self.rounds):
            entry = self.rounds[round_no]
            rows.append(
                (
                    str(entry.round_no),
                    str(entry.messages_sent),
                    str(entry.frames_sent),
                    str(entry.bytes_sent),
                    str(entry.dropped),
                    str(entry.timeouts),
                    str(entry.late_frames),
                )
            )
        widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
        lines = []
        for idx, row in enumerate(rows):
            lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
            if idx == 0:
                lines.append("  ".join("-" * w for w in widths))
        pct = self.latency_percentiles()
        lines.append("")
        lines.append(
            f"transport={self.transport or 'unknown'}  "
            f"messages={self.total_messages}  frames={self.total_frames}  "
            f"bytes={self.total_bytes}  "
            f"V_d substitutions={self.total_substitutions}"
        )
        if self.total_frames_batched:
            lines.append(f"batching: {self.total_frames_batched} batch frame(s)")
        if self.window:
            lines.append(
                f"multiplexing: {self.instances_folded} instance(s) folded in  "
                f"rounds={self.total_rounds}"
                + (f"  stray_frames={self.stray_frames}"
                   if self.stray_frames else "")
            )
        if self.links or self.endpoint_restarts or self.link_resets:
            lines.append(
                f"supervision: reconnects={self.total_reconnects}  "
                f"deduped={self.total_deduped}  "
                f"outages={self.total_outages}  "
                f"link_resets={self.link_resets}  "
                f"endpoint_restarts={self.endpoint_restarts}"
            )
        if self.total_chaos_events or self.partition_rounds or self.decode_errors:
            lines.append(
                f"chaos: drops={self.total_chaos_drops}  "
                f"dups={self.total_chaos_dups}  "
                f"reorders={self.total_chaos_reorders}  "
                f"corruptions={self.total_chaos_corruptions}  "
                f"partition_rounds={self.partition_rounds}  "
                f"crashes={self.crash_events}  "
                f"decode_errors={self.decode_errors}"
            )
        lines.append(
            "latency p50={:.6f}s p90={:.6f}s p99={:.6f}s".format(
                pct["p50"], pct["p90"], pct["p99"]
            )
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"NetMetrics(transport={self.transport!r}, "
            f"rounds={len(self.rounds)}, messages={self.total_messages}, "
            f"timeouts={self.total_timeouts})"
        )
