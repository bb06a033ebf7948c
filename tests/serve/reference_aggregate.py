"""Today's service aggregate, kept verbatim as the differential oracle.

These are the bodies that kept every decided instance whole: the folding
``NetMetrics`` (``repro.net.metrics``: one recorder per decided instance in
``instances``, every total a walk over all of them), the Prometheus
catalog that walked them and the gateway's outcomes (``repro.obs.prom``:
``Exposition`` and ``metrics_registry``), and the gateway's outcome walks
(``AgreementService.service_trace``, ``record_service_run``, the
``/healthz`` count and the ``service_stopped`` count).  Below the adapter
section the file is those bodies byte for byte, taken from the modules
before the service kept a bounded window.  Nothing here is imported by
``src/``; ``test_aggregate_differential.py`` requires the live aggregate to
agree with it.  Do not "fix" or speed up this file.

Adapters (not verbatim): :class:`ServiceView` is a live service seen
through every outcome it decided (the client holds them); :func:`copy_of`
rebuilds an instance's recorder as one of this module's.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.obs.stats import percentiles
from repro.sim.trace import EventTrace


# ----------------------------------------------------------------------
# Adapters
# ----------------------------------------------------------------------
def copy_of(recorder) -> "NetMetrics":
    """*recorder* (a live ``NetMetrics`` of one instance) as a reference
    recorder: the same rounds, scalars and links."""
    copy = NetMetrics(transport=recorder.transport)
    for round_no, entry in recorder.rounds.items():
        mine = copy.round(round_no)
        for name in (
            "messages_sent", "bytes_sent", "frames_sent", "frames_batched",
            "duration", "dropped", "send_failures", "timeouts",
            "late_frames", "chaos_drops", "chaos_dups", "chaos_reorders",
            "chaos_corruptions",
        ):
            setattr(mine, name, getattr(entry, name))
        mine.latencies = list(entry.latencies)
        mine.expected_sources = dict(entry.expected_sources)
    for name in (
        "substitutions", "decode_errors", "partition_rounds", "crash_events",
        "stray_frames", "endpoint_restarts", "link_resets",
    ):
        setattr(copy, name, getattr(recorder, name))
    for key, link in recorder.links.items():
        copy.links[key] = LinkMetrics(
            link.reconnects, link.deduped, link.errors, link.outages,
            link.outage_seconds,
        )
    return copy


def aggregate_of(service, decided) -> "NetMetrics":
    """The service's aggregate as the reference kept it: its own counters
    and rounds, and every outcome of *decided* (decision order) folded."""
    live = service.aggregate_metrics
    reference = copy_of(live)
    reference.bus, reference.tracer = live.bus, live.tracer
    for outcome in decided:
        reference.record_instance(outcome.instance_id, copy_of(outcome.metrics))
    return reference


class ServiceView:
    """A live service whose ``outcomes`` are every instance it decided."""

    def __init__(self, service, decided) -> None:
        self._service = service
        self.outcomes = {outcome.instance_id: outcome for outcome in decided}

    def __getattr__(self, name):
        return getattr(self._service, name)

    def service_trace(self) -> EventTrace:
        """Every finished instance's stamped events, one merged trace.

        Instances appear in completion order; concatenation keeps each
        one's internal event order intact, which is all the
        demux-and-verify path needs (record fingerprints sort lines).
        """
        merged = EventTrace()
        for outcome in self.outcomes.values():
            if outcome.trace is not None:
                for event in outcome.trace.events:
                    merged.record(event)
        return merged


def healthz_instances_done(service) -> int:
    """``ObsServer.for_service``'s ``/healthz`` count."""
    return len(service.outcomes)


def service_stopped_instances(service) -> int:
    """``AgreementService.close``'s ``service_stopped`` count."""
    return len(service.outcomes)


# ----------------------------------------------------------------------
# repro.net.metrics
# ----------------------------------------------------------------------
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
            lines.append(f"batching: {self.total_frames_batched} batch frame(s)")
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


# ----------------------------------------------------------------------
# repro.obs.prom
# ----------------------------------------------------------------------
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


def _format_value(value: float) -> str:
    """Exposition-format number: integral floats render as integers."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels_text(names: Sequence[str], values: Sequence[object]) -> str:
    if not names:
        return ""
    return "{" + ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(names, values)
    ) + "}"


def _children(labels: Sequence[str], data) -> List[Tuple[tuple, object]]:
    """``[(label values, data)]`` sorted by label values.

    An unlabeled family's *data* is its one child's; a labeled family's
    maps each label value (a tuple of values when *labels* names more
    than one) to a child's.
    """
    if not labels:
        return [((), data)]
    return sorted(
        (key if isinstance(key, tuple) else (key,), value)
        for key, value in data.items()
    )


class Exposition:
    """One scrape's exposition text, written family by family.

    :meth:`add` and :meth:`histogram` format a family's block as it is
    written; :meth:`render` joins the blocks sorted by family name.  A
    repeated name keeps both blocks, so :func:`parse_exposition` rejects
    the duplicate samples rather than one copy silently replacing the
    other.
    """

    def __init__(self) -> None:
        self._blocks: List[Tuple[str, str]] = []

    def _write(
        self, name: str, kind: str, help_text: str, rows: List[str]
    ) -> None:
        head = [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"]
        self._blocks.append((name, "\n".join(head + rows)))

    def add(
        self,
        name: str,
        kind: str,
        help_text: str,
        samples,
        labels: Sequence[str] = (),
    ) -> None:
        """Write a ``counter`` or ``gauge`` family.

        *samples* is an unlabeled family's value, or maps each label
        value to its sample's value; an empty mapping writes the header
        alone.
        """
        self._write(name, kind, help_text, [
            f"{name}{_labels_text(labels, values)} {_format_value(value)}"
            for values, value in _children(labels, samples)
        ])

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float],
        observations,
        labels: Sequence[str] = (),
    ) -> None:
        """Write a cumulative fixed-bucket histogram family.

        *observations* is an unlabeled family's observed values, or maps
        each label value to its child's.  A child observed no times
        writes no samples.
        """
        rows: List[str] = []
        for values, child in _children(labels, observations):
            if not child:
                continue
            ordered = sorted(child)
            total = 0.0
            for value in child:  # in observation order: the sum's bits
                total += value
            for bound in (*buckets, math.inf):
                le = _labels_text(
                    (*labels, "le"), (*values, _format_value(bound))
                )
                count = bisect.bisect_right(ordered, bound)
                rows.append(f"{name}_bucket{le} {count}")
            suffix = _labels_text(labels, values)
            rows.append(f"{name}_sum{suffix} {_format_value(total)}")
            rows.append(f"{name}_count{suffix} {len(child)}")
        self._write(name, "histogram", help_text, rows)

    def render(self) -> str:
        """The full exposition body, families sorted by metric name."""
        blocks = [text for _, text in sorted(self._blocks)]
        return "\n".join(blocks) + ("\n" if blocks else "")


# ----------------------------------------------------------------------
# NetMetrics -> exposition (the exported catalog)
# ----------------------------------------------------------------------
def metrics_registry(
    metrics: "NetMetrics",
    service: Optional["AgreementService"] = None,
    bus: Optional["EventBus"] = None,
    tracer=None,
) -> Exposition:
    """Render one recorder (plus optional service/bus state) as exposition.

    Counter values are lifted straight from the recorder the runtime
    already maintains, so ``/metrics`` agrees with
    :meth:`NetMetrics.counters` without double bookkeeping.  For a
    service aggregate the wire totals (frames, messages, bytes, rounds,
    substitutions, latencies, durations) cover every decided instance
    folded into it — the recorder's ``total_*`` views sum them.  Written
    per scrape: cheap (one pass over the recorder) and race-free enough
    for a single event loop.  *tracer* (a :class:`repro.trace.Tracer`)
    adds the span-derived families: per-category span counts and
    duration histograms.
    """
    out = Exposition()
    links = metrics.links.values()

    out.add(
        "repro_build_info", "gauge", "Static run identity.",
        {metrics.transport or "unknown": 1}, ("transport",),
    )
    out.add(
        "repro_rounds_total", "gauge",
        "Engine rounds the runtime executed.", metrics.total_rounds,
    )
    for name, help_text, value in (
        ("repro_messages_sent_total",
         "Protocol messages handed to the transport.",
         metrics.total_messages),
        ("repro_frames_sent_total", "Wire frames successfully sent.",
         metrics.total_frames),
        ("repro_frames_batched_total", "BATCH frames among the sent frames.",
         metrics.total_frames_batched),
        ("repro_bytes_sent_total", "Bytes on the wire (0 when unmeasured).",
         metrics.total_bytes),
        ("repro_substitutions_total",
         "V_d substitutions for absent messages (assumption (b); "
         "the core degradation signal).",
         metrics.total_substitutions),
        ("repro_dropped_messages_total",
         "Messages removed by fault adapters before the wire.",
         metrics.total_dropped),
        ("repro_send_failures_total",
         "Frames whose send failed (observed as absence).",
         metrics.total_send_failures),
        ("repro_timeouts_total",
         "(receiver, peer) pairs unresolved at a round deadline.",
         metrics.total_timeouts),
        ("repro_late_frames_total",
         "Frames that arrived after their round closed.",
         metrics.total_late_frames),
        ("repro_decode_errors_total",
         "Poisoned byte streams a transport discarded.",
         metrics.decode_errors),
        ("repro_partition_rounds_total",
         "Engine rounds with at least one severed partition.",
         metrics.partition_rounds),
        ("repro_link_reconnects_total",
         "Supervised links re-established after carrying traffic.",
         metrics.total_reconnects),
        ("repro_link_deduped_frames_total",
         "Inbound frames dropped as sequence-number replays.",
         metrics.total_deduped),
        ("repro_link_errors_total",
         "Sends a transport failed with a connection-level error.",
         sum(link.errors for link in links)),
        ("repro_link_outages_total",
         "Outage windows the link supervisor rode out.",
         metrics.total_outages),
        ("repro_link_outage_seconds_total",
         "Wall-clock seconds spent inside outage windows.",
         sum(link.outage_seconds for link in links)),
        ("repro_endpoint_restarts_total",
         "Node endpoints killed and restarted mid-run.",
         metrics.endpoint_restarts),
        ("repro_link_resets_total",
         "Scheduled hard-resets of pooled connections.",
         metrics.link_resets),
        ("repro_instances_folded_total",
         "Decided service instances folded into the aggregate recorder.",
         len(metrics.instances)),
        ("repro_stray_frames_total",
         "Frames routed to a retired or unknown instance.",
         metrics.stray_frames),
    ):
        out.add(name, "counter", help_text, value)
    out.add(
        "repro_chaos_events_total", "counter",
        "Chaos-layer perturbations by kind.",
        {
            "drop": metrics.total_chaos_drops,
            "dup": metrics.total_chaos_dups,
            "reorder": metrics.total_chaos_reorders,
            "corruption": metrics.total_chaos_corruptions,
            "crash": metrics.crash_events,
        },
        ("kind",),
    )
    out.histogram(
        "repro_delivery_latency_seconds",
        "One-way data-frame delivery latency.",
        LATENCY_BUCKETS,
        [value for entry in metrics.all_rounds() for value in entry.latencies],
    )
    out.histogram(
        "repro_round_duration_seconds",
        "Wall-clock duration of each engine round.",
        DURATION_BUCKETS,
        [d for d in metrics.round_durations() if d > 0.0],
    )

    if service is not None:
        for name, help_text, value in (
            ("repro_gateway_inflight",
             "Instances currently holding a worker slot.",
             service.inflight),
            ("repro_gateway_queue_depth",
             "Admitted instances waiting for a worker slot.",
             service.queue_depth),
            ("repro_gateway_admitted",
             "Submitted-but-unfinished instances (queued + in flight).",
             service.admitted),
            ("repro_gateway_retry_after_seconds",
             "Current backpressure hint handed to rejected clients.",
             service.retry_after_hint()),
        ):
            out.add(name, "gauge", help_text, value)
        out.add(
            "repro_gateway_rejected_submits_total", "counter",
            "Submits bounced by admission control.",
            service.rejected_submits,
        )
        outcomes = list(service.outcomes.values())
        tiers = dict.fromkeys(("byzantine", "degraded", "none"), 0)
        for outcome in outcomes:
            tiers[outcome.tier] += 1
        satisfied = sum(1 for outcome in outcomes if outcome.ok)
        out.add(
            "repro_instances_total", "counter",
            "Finished instances by outcome.",
            {"decided": len(outcomes)}, ("outcome",),
        )
        out.add(
            "repro_tier_verdicts_total", "counter",
            "Per-instance D.1-D.4 guarantee-tier verdicts "
            "(byzantine: f<=m; degraded: m<f<=u; none: f>u).",
            tiers, ("tier",),
        )
        out.add(
            "repro_instance_contracts_total", "counter",
            "Finished instances by contract verdict.",
            {"satisfied": satisfied, "violated": len(outcomes) - satisfied},
            ("verdict",),
        )
        out.histogram(
            "repro_instance_latency_seconds",
            "Submit-to-decision latency of finished instances.",
            DURATION_BUCKETS,
            [outcome.latency for outcome in outcomes],
        )

    if bus is not None:
        out.add(
            "repro_obs_events_total", "counter",
            "Observability events published, by kind.",
            bus.counts, ("kind",),
        )
        out.add(
            "repro_obs_subscriber_errors_total", "counter",
            "Event-bus subscriber callbacks that raised.",
            bus.subscriber_errors,
        )
        out.add(
            "repro_obs_events_dropped_total", "counter",
            "Events evicted from the bounded ring buffer "
            "(no longer replayable via /events).",
            bus.events_dropped,
        )

    if tracer is not None:
        by_category = tracer.durations_by_category()
        out.add(
            "repro_spans_total", "counter",
            "Finished trace spans, by instrumented layer.",
            {category: len(spans) for category, spans in by_category.items()},
            ("category",),
        )
        out.histogram(
            "repro_span_duration_seconds",
            "Duration of finished trace spans, by instrumented layer.",
            DURATION_BUCKETS,
            by_category,
            ("category",),
        )

    return out


# ----------------------------------------------------------------------
# repro.serve.gateway
# ----------------------------------------------------------------------
def record_service_run(service: AgreementService) -> "RunRecord":
    """Package a finished service run as one ``mode="serve"`` RunRecord.

    The merged trace interleaves every instance's stamped events; the
    header's ``meta["instances"]`` lists each instance's sender, value and
    fault set so :func:`repro.verify.demux_record` can rebuild one
    auditable per-instance record per entry.  The top-level sender /
    value / faulty fields describe the *first* instance (the header needs
    one); per-instance truth always comes from the meta listing.
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
        meta={"instances": instances_meta},
    )
