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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

from repro.obs.stats import percentiles

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import EventBus
    from repro.trace import Tracer

NodeId = Hashable

Link = Tuple[str, str]


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
    #: Bytes the batch envelope deduplication saved vs one frame per
    #: message plus a marker (0 for unmeasured transports).
    batch_bytes_saved: int = 0
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
    #: offline checkers can tell structural silence from losses.
    expected_sources: Dict[NodeId, Tuple[NodeId, ...]] = field(
        default_factory=dict
    )


def _round_total(counter: str) -> property:
    """Read-only total of one :class:`RoundMetrics` counter over a
    recorder's own rounds and those of every instance folded into it."""

    def total(self: "NetMetrics") -> int:
        return sum(getattr(entry, counter) for entry in self.all_rounds())

    return property(total)


class NetMetrics:
    """Run-wide metrics recorder for one async agreement execution.

    Also the run's observer handle: built with its optional event *bus*
    and span *tracer*, which every transport layer it is attached to
    reaches through it.  Neither may change :meth:`counters`.
    """

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
        #: Folded recorders of a multiplexed service run
        #: (:mod:`repro.serve`): instance id → the *instance's own*
        #: recorder, folded in by :meth:`record_instance` when the
        #: instance decides.  Every ``total_*`` figure sums this recorder's
        #: rounds and theirs.  Single-agreement runs leave this empty.
        self.instances: Dict[str, "NetMetrics"] = {}
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

    def record_batch(
        self, round_no: int, n_messages: int, nbytes: int, saved: int
    ) -> None:
        entry = self.round(round_no)
        entry.messages_sent += n_messages
        entry.bytes_sent += nbytes
        entry.frames_sent += 1
        entry.frames_batched += 1
        entry.batch_bytes_saved += saved

    def record_round_duration(self, round_no: int, seconds: float) -> None:
        self.round(round_no).duration = seconds

    def record_drop(self, round_no: int) -> None:
        self.round(round_no).dropped += 1

    def record_send_failure(self, round_no: int) -> None:
        self.round(round_no).send_failures += 1

    def record_timeout(self, round_no: int, receiver: NodeId, peer: NodeId) -> None:
        self.round(round_no).timeouts += 1

    def record_expected(
        self, round_no: int, node: NodeId, sources: Tuple[NodeId, ...]
    ) -> None:
        self.round(round_no).expected_sources[node] = tuple(sources)

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

    def record_instance(
        self, instance_id: Hashable, recorder: "NetMetrics"
    ) -> None:
        """Fold one decided instance's recorder into this run.

        Called by the service gateway when an instance completes, with the
        recorder the instance's runner wrote (nothing is copied: totals
        and the fingerprint are derived from it on demand).  The key is
        stringified so arbitrary hashable instance ids serialize stably.
        Because :meth:`counters` emits the folded counters sorted by key,
        the aggregate fingerprint is insensitive to instance *completion
        order* — two same-seed service runs fingerprint identically even
        though the event loop interleaves them freely.
        """
        self.instances[str(instance_id)] = recorder

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
    def all_rounds(self) -> List[RoundMetrics]:
        """Every round entry of this recorder and of the folded ones."""
        return [
            entry
            for recorder in (self, *self.instances.values())
            for entry in recorder.rounds.values()
        ]

    @property
    def total_rounds(self) -> int:
        """Engine rounds executed.

        A service aggregate runs no round itself — its own round entries
        only hold what the shared chaos layer did — so once instances are
        folded in, theirs are the rounds that count.
        """
        folded = sum(len(r.rounds) for r in self.instances.values())
        return folded or len(self.rounds)

    @property
    def total_substitutions(self) -> int:
        """``V_d`` substitutions of this run and of every folded instance."""
        return self.substitutions + sum(
            r.substitutions for r in self.instances.values()
        )

    total_messages = _round_total("messages_sent")
    total_bytes = _round_total("bytes_sent")
    #: Wire frames successfully sent — the batching win shows here.
    total_frames = _round_total("frames_sent")
    total_frames_batched = _round_total("frames_batched")
    total_batch_bytes_saved = _round_total("batch_bytes_saved")
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
        this recorder's, then each folded instance's."""
        return [
            recorder.rounds[r].duration
            for recorder in (self, *self.instances.values())
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
        that sums across instances.
        """
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
        for instance_id in sorted(self.instances):
            folded = self.instances[instance_id].counters()
            for key, value in sorted(folded.items()):
                out[f"inst.{instance_id}.{key}"] = value
        for round_no in sorted(self.rounds):
            entry = self.rounds[round_no]
            prefix = f"r{round_no}."
            out[prefix + "messages_sent"] = entry.messages_sent
            out[prefix + "frames_sent"] = entry.frames_sent
            out[prefix + "frames_batched"] = entry.frames_batched
            out[prefix + "dropped"] = entry.dropped
            out[prefix + "send_failures"] = entry.send_failures
            out[prefix + "timeouts"] = entry.timeouts
            out[prefix + "late_frames"] = entry.late_frames
            out[prefix + "chaos_drops"] = entry.chaos_drops
            out[prefix + "chaos_dups"] = entry.chaos_dups
            out[prefix + "chaos_reorders"] = entry.chaos_reorders
            out[prefix + "chaos_corruptions"] = entry.chaos_corruptions
            out[prefix + "delivered"] = len(entry.latencies)
            out[prefix + "expected_links"] = sum(
                len(sources) for sources in entry.expected_sources.values()
            )
        for key, value in out.items():
            if type(value) is not int:
                raise TypeError(
                    f"fingerprint counter {key!r} is {value!r} "
                    f"({type(value).__name__}); only ints may enter the "
                    f"determinism fingerprint — wall-clock leakage?"
                )
        return out

    def latency_percentiles(self) -> Dict[str, float]:
        """Pooled one-way latency percentiles, nearest-rank, in seconds.

        Delegates to :func:`repro.obs.stats.percentiles` — the one
        canonical nearest-rank implementation.
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
            lines.append(
                f"batching: {self.total_frames_batched} batch frame(s), "
                f"{self.total_batch_bytes_saved} envelope byte(s) saved"
            )
        if self.instances:
            lines.append(
                f"multiplexing: {len(self.instances)} instance(s) folded in  "
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
