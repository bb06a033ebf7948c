"""Prometheus text exposition, no third-party dependencies.

:func:`metrics_registry` renders one :class:`~repro.net.metrics.NetMetrics`
recorder (and optionally a live
:class:`~repro.serve.gateway.AgreementService`, its
:class:`~repro.obs.events.EventBus` and a tracer) as the stable metric
catalog, in the Prometheus text exposition format (version 0.0.4).  It
keeps no metric store of its own: each family is read from the recorder
when the scrape renders and written once through :class:`Exposition`, so
every sample in one ``/metrics`` response is from one consistent read and
the counter values agree with :meth:`NetMetrics.counters` by construction
(``docs/observability.md`` documents the catalog and which D.1–D.4
signal each metric carries).  :func:`parse_exposition` is the tiny
validator tests and the CI gate run against every rendering.
"""

from __future__ import annotations

import bisect
import math
import re
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

# The fixed histogram buckets are defined beside the recorder that folds a
# service's evicted samples into them, and exported here with the catalog.
from repro.net.metrics import DURATION_BUCKETS, LATENCY_BUCKETS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.metrics import Buckets, NetMetrics
    from repro.obs.events import EventBus
    from repro.serve.gateway import AgreementService

__all__ = [
    "Exposition",
    "metrics_registry",
    "parse_exposition",
    "LATENCY_BUCKETS",
    "DURATION_BUCKETS",
]


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
        folded: Optional["Buckets"] = None,
    ) -> None:
        """Write a cumulative fixed-bucket histogram family.

        *observations* is an unlabeled family's observed values, or maps
        each label value to its child's.  An unlabeled family's *folded*
        buckets (:class:`~repro.net.metrics.Buckets` over these *buckets*)
        count observations no longer held, before the held ones.  A child
        observed no times writes no samples.
        """
        rows: List[str] = []
        counts = folded.counts if folded is not None else ()
        for values, child in _children(labels, observations):
            if not child and not any(counts):
                continue
            ordered = sorted(child)
            total = 0.0 if folded is None else folded.total
            for value in child:  # in observation order: the sum's bits
                total += value
            below = 0
            for index, bound in enumerate((*buckets, math.inf)):
                le = _labels_text(
                    (*labels, "le"), (*values, _format_value(bound))
                )
                if counts:
                    below += counts[index]
                count = bisect.bisect_right(ordered, bound) + below
                rows.append(f"{name}_bucket{le} {count}")
            suffix = _labels_text(labels, values)
            rows.append(f"{name}_sum{suffix} {_format_value(total)}")
            rows.append(f"{name}_count{suffix} {len(child) + below}")
        self._write(name, "histogram", help_text, rows)

    def render(self) -> str:
        """The full exposition body, families sorted by metric name."""
        blocks = [text for _, text in sorted(self._blocks)]
        return "\n".join(blocks) + ("\n" if blocks else "")


# ----------------------------------------------------------------------
# Tiny exposition parser (the CI gate's malformed-line detector)
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(?P<labels>\{(?:[^{}"]|"(?:[^"\\]|\\.)*")*\})?'
    r" (?P<value>[^ ]+)"
    r"(?: (?P<timestamp>-?[0-9]+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)


def parse_exposition(text: str) -> Dict[str, float]:
    """Parse exposition *text*; raise ``ValueError`` on any malformed line.

    Returns ``{"name{label=\"v\",...}": value}`` for every sample line.
    Deliberately tiny — it validates the subset this repo emits (HELP /
    TYPE comments, labeled samples, histogram suffixes) strictly enough
    for the CI gate to catch a broken renderer, not the full spec.
    """
    samples: Dict[str, float] = {}
    typed: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 4 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(
                    f"line {lineno}: malformed comment {line!r}"
                )
            if parts[1] == "TYPE":
                if parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    raise ValueError(
                        f"line {lineno}: unknown metric type {parts[3]!r}"
                    )
                typed[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        labels_text = match.group("labels") or ""
        if labels_text:
            inner = labels_text[1:-1]
            consumed = ",".join(
                f'{m.group(1)}="{m.group(2)}"'
                for m in _LABEL_PAIR_RE.finditer(inner)
            )
            if consumed != inner:
                raise ValueError(
                    f"line {lineno}: malformed labels {labels_text!r}"
                )
        raw = match.group("value")
        try:
            value = float(raw)
        except ValueError:
            if raw == "+Inf":
                value = math.inf
            elif raw == "-Inf":
                value = -math.inf
            elif raw == "NaN":
                value = math.nan
            else:
                raise ValueError(
                    f"line {lineno}: unparseable value {raw!r}"
                ) from None
        key = match.group("name") + labels_text
        if key in samples:
            raise ValueError(f"line {lineno}: duplicate sample {key!r}")
        samples[key] = value
    return samples


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
    duration histograms.  A scrape walks the service's one store of
    decided instances and reads every count and evicted sum from its
    tally: its cost is bounded by the store, not by the run's history.
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
         metrics.instances_folded),
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
    evicted = metrics.folded
    out.histogram(
        "repro_delivery_latency_seconds",
        "One-way data-frame delivery latency.",
        LATENCY_BUCKETS,
        [value for entry in metrics.all_rounds() for value in entry.latencies],
        folded=None if evicted is None else evicted.latencies,
    )
    out.histogram(
        "repro_round_duration_seconds",
        "Wall-clock duration of each engine round.",
        DURATION_BUCKETS,
        [d for d in metrics.round_durations() if d > 0.0],
        folded=None if evicted is None else evicted.durations,
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
        tally = service.tally()
        out.add(
            "repro_instances_total", "counter",
            "Finished instances by outcome.",
            {"decided": tally.decided}, ("outcome",),
        )
        out.add(
            "repro_tier_verdicts_total", "counter",
            "Per-instance D.1-D.4 guarantee-tier verdicts "
            "(byzantine: f<=m; degraded: m<f<=u; none: f>u).",
            tally.tiers, ("tier",),
        )
        out.add(
            "repro_instance_contracts_total", "counter",
            "Finished instances by contract verdict.",
            {
                "satisfied": tally.satisfied,
                "violated": tally.decided - tally.satisfied,
            },
            ("verdict",),
        )
        out.histogram(
            "repro_instance_latency_seconds",
            "Submit-to-decision latency of finished instances.",
            DURATION_BUCKETS,
            (),
            folded=tally.instance_latencies,
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
