"""The registry-backed exposition writer, kept verbatim as the differential oracle.

These are the bodies ``repro.obs.prom`` had while it kept a metric store
of its own: :class:`Counter`, :class:`Gauge` and :class:`Histogram`
families inside a :class:`Registry`, filled from the recorder once per
scrape by ``metrics_registry`` and rendered sorted.  Below this
docstring the file is that module byte for byte.  Nothing here is
imported by ``src/``; ``test_prom_differential.py`` requires the live
``metrics_registry(...).render()`` to agree with it on every scrape (the
live catalog adds ``repro_link_errors_total``), and
``test_prom.py::TestPrimitives`` pins the registry checks the live writer
no longer makes.  Do not "fix" or speed up this file.
"""

from __future__ import annotations

import math
import re
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.metrics import NetMetrics
    from repro.obs.events import EventBus
    from repro.serve.gateway import AgreementService

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "metrics_registry",
    "parse_exposition",
    "LATENCY_BUCKETS",
    "DURATION_BUCKETS",
]

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

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelValues = Tuple[str, ...]


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


class _Family:
    """Shared plumbing: a named family with labeled children."""

    type_name = "untyped"

    def __init__(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._children: Dict[LabelValues, float] = {}

    def _key(self, labels: Mapping[str, str]) -> LabelValues:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _labels_text(self, values: LabelValues) -> str:
        if not self.labelnames:
            return ""
        inner = ",".join(
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(self.labelnames, values)
        )
        return "{" + inner + "}"

    def samples(self) -> Iterable[Tuple[str, str, float]]:
        """Yield ``(sample_name, labels_text, value)`` rows, sorted."""
        for values in sorted(self._children):
            yield self.name, self._labels_text(values), self._children[values]

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.type_name}",
        ]
        for sample_name, labels_text, value in self.samples():
            lines.append(
                f"{sample_name}{labels_text} {_format_value(value)}"
            )
        return "\n".join(lines)


class Counter(_Family):
    """Monotonically increasing count (snapshot semantics: ``set`` too)."""

    type_name = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        key = self._key(labels)
        self._children[key] = self._children.get(key, 0.0) + amount

    def set(self, value: float, **labels: str) -> None:
        """Snapshot assignment — the registry is rebuilt per scrape."""
        if value < 0:
            raise ValueError(f"counters are non-negative, got {value}")
        self._children[self._key(labels)] = value


class Gauge(_Family):
    """A value that can go anywhere."""

    type_name = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self._children[self._key(labels)] = value

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        self._children[key] = self._children.get(key, 0.0) + amount


class Histogram(_Family):
    """Fixed-bucket cumulative histogram (``_bucket``/``_sum``/``_count``)."""

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float],
        labelnames: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help_text, labelnames)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.buckets = tuple(float(b) for b in buckets)
        # child -> (per-bucket counts, sum, count)
        self._hist: Dict[LabelValues, Tuple[List[int], float, int]] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        counts, total, n = self._hist.get(
            key, ([0] * len(self.buckets), 0.0, 0)
        )
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                counts[index] += 1
        self._hist[key] = (counts, total + value, n + 1)

    def observe_many(self, values: Iterable[float], **labels: str) -> None:
        for value in values:
            self.observe(value, **labels)

    def samples(self) -> Iterable[Tuple[str, str, float]]:
        for key in sorted(self._hist):
            counts, total, n = self._hist[key]
            base = list(zip(self.labelnames, key))
            for bound, count in zip(self.buckets, counts):
                pairs = base + [("le", _format_value(bound))]
                labels_text = "{" + ",".join(
                    f'{name}="{_escape_label(str(value))}"'
                    for name, value in pairs
                ) + "}"
                yield f"{self.name}_bucket", labels_text, float(count)
            pairs = base + [("le", "+Inf")]
            labels_text = "{" + ",".join(
                f'{name}="{_escape_label(str(value))}"'
                for name, value in pairs
            ) + "}"
            yield f"{self.name}_bucket", labels_text, float(n)
            suffix = self._labels_text(key)
            yield f"{self.name}_sum", suffix, total
            yield f"{self.name}_count", suffix, float(n)

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.type_name}",
        ]
        for sample_name, labels_text, value in self.samples():
            lines.append(
                f"{sample_name}{labels_text} {_format_value(value)}"
            )
        return "\n".join(lines)


class Registry:
    """A named collection of metric families, rendered sorted by name."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    def register(self, family: _Family) -> _Family:
        if family.name in self._families:
            raise ValueError(f"duplicate metric family {family.name!r}")
        self._families[family.name] = family
        return family

    def counter(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        return self.register(Counter(name, help_text, labelnames))  # type: ignore[return-value]

    def gauge(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self.register(Gauge(name, help_text, labelnames))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float],
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        return self.register(Histogram(name, help_text, buckets, labelnames))  # type: ignore[return-value]

    def get(self, name: str) -> Optional[_Family]:
        return self._families.get(name)

    def render(self) -> str:
        """The full exposition body, families sorted by metric name."""
        blocks = [
            self._families[name].render()
            for name in sorted(self._families)
        ]
        return "\n".join(blocks) + ("\n" if blocks else "")


# ----------------------------------------------------------------------
# Tiny exposition parser (the CI gate's malformed-line detector)
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
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
# NetMetrics -> registry mapping (the exported catalog)
# ----------------------------------------------------------------------
def metrics_registry(
    metrics: "NetMetrics",
    service: Optional["AgreementService"] = None,
    bus: Optional["EventBus"] = None,
    tracer=None,
) -> Registry:
    """Snapshot one recorder (plus optional service/bus state) as a Registry.

    Counter values are lifted straight from the recorder the runtime
    already maintains, so ``/metrics`` agrees with
    :meth:`NetMetrics.counters` without double bookkeeping.  For a
    service aggregate the wire totals (frames, messages, bytes, rounds,
    substitutions, latencies, durations) cover every decided instance
    folded into it — the recorder's ``total_*`` views sum them.  Rebuilt per
    scrape: cheap (one pass over the recorder) and race-free enough for
    a single event loop.  *tracer* (a :class:`repro.trace.Tracer`) adds
    the span-derived families: per-category span counts and duration
    histograms.
    """
    registry = Registry()

    info = registry.gauge(
        "repro_build_info", "Static run identity.", ("transport",)
    )
    info.set(1, transport=metrics.transport or "unknown")

    registry.gauge(
        "repro_rounds_total", "Engine rounds the runtime executed."
    ).set(metrics.total_rounds)
    registry.counter(
        "repro_messages_sent_total",
        "Protocol messages handed to the transport.",
    ).set(metrics.total_messages)
    registry.counter(
        "repro_frames_sent_total", "Wire frames successfully sent."
    ).set(metrics.total_frames)
    registry.counter(
        "repro_frames_batched_total",
        "BATCH frames among the sent frames.",
    ).set(metrics.total_frames_batched)
    registry.counter(
        "repro_bytes_sent_total", "Bytes on the wire (0 when unmeasured)."
    ).set(metrics.total_bytes)
    registry.counter(
        "repro_substitutions_total",
        "V_d substitutions for absent messages (assumption (b); "
        "the core degradation signal).",
    ).set(metrics.total_substitutions)
    registry.counter(
        "repro_dropped_messages_total",
        "Messages removed by fault adapters before the wire.",
    ).set(metrics.total_dropped)
    registry.counter(
        "repro_send_failures_total",
        "Frames whose send failed (observed as absence).",
    ).set(metrics.total_send_failures)
    registry.counter(
        "repro_timeouts_total",
        "(receiver, peer) pairs unresolved at a round deadline.",
    ).set(metrics.total_timeouts)
    registry.counter(
        "repro_late_frames_total",
        "Frames that arrived after their round closed.",
    ).set(metrics.total_late_frames)
    registry.counter(
        "repro_decode_errors_total",
        "Poisoned byte streams a transport discarded.",
    ).set(metrics.decode_errors)

    chaos = registry.counter(
        "repro_chaos_events_total",
        "Chaos-layer perturbations by kind.",
        ("kind",),
    )
    chaos.set(metrics.total_chaos_drops, kind="drop")
    chaos.set(metrics.total_chaos_dups, kind="dup")
    chaos.set(metrics.total_chaos_reorders, kind="reorder")
    chaos.set(metrics.total_chaos_corruptions, kind="corruption")
    chaos.set(metrics.crash_events, kind="crash")
    registry.counter(
        "repro_partition_rounds_total",
        "Engine rounds with at least one severed partition.",
    ).set(metrics.partition_rounds)

    registry.counter(
        "repro_link_reconnects_total",
        "Supervised links re-established after carrying traffic.",
    ).set(metrics.total_reconnects)
    registry.counter(
        "repro_link_deduped_frames_total",
        "Inbound frames dropped as sequence-number replays.",
    ).set(metrics.total_deduped)
    registry.counter(
        "repro_link_outages_total",
        "Outage windows the link supervisor rode out.",
    ).set(metrics.total_outages)
    registry.counter(
        "repro_link_outage_seconds_total",
        "Wall-clock seconds spent inside outage windows.",
    ).set(sum(link.outage_seconds for link in metrics.links.values()))
    registry.counter(
        "repro_endpoint_restarts_total",
        "Node endpoints killed and restarted mid-run.",
    ).set(metrics.endpoint_restarts)
    registry.counter(
        "repro_link_resets_total",
        "Scheduled hard-resets of pooled connections.",
    ).set(metrics.link_resets)

    registry.counter(
        "repro_instances_folded_total",
        "Decided service instances folded into the aggregate recorder.",
    ).set(len(metrics.instances))
    registry.counter(
        "repro_stray_frames_total",
        "Frames routed to a retired or unknown instance.",
    ).set(metrics.stray_frames)

    latency = registry.histogram(
        "repro_delivery_latency_seconds",
        "One-way data-frame delivery latency.",
        LATENCY_BUCKETS,
    )
    for entry in metrics.all_rounds():
        latency.observe_many(entry.latencies)
    durations = registry.histogram(
        "repro_round_duration_seconds",
        "Wall-clock duration of each engine round.",
        DURATION_BUCKETS,
    )
    durations.observe_many(
        d for d in metrics.round_durations() if d > 0.0
    )

    if service is not None:
        registry.gauge(
            "repro_gateway_inflight",
            "Instances currently holding a worker slot.",
        ).set(service.inflight)
        registry.gauge(
            "repro_gateway_queue_depth",
            "Admitted instances waiting for a worker slot.",
        ).set(service.queue_depth)
        registry.gauge(
            "repro_gateway_admitted",
            "Submitted-but-unfinished instances (queued + in flight).",
        ).set(service.admitted)
        registry.counter(
            "repro_gateway_rejected_submits_total",
            "Submits bounced by admission control.",
        ).set(service.rejected_submits)
        registry.gauge(
            "repro_gateway_retry_after_seconds",
            "Current backpressure hint handed to rejected clients.",
        ).set(service.retry_after_hint())
        outcomes = registry.counter(
            "repro_instances_total",
            "Finished instances by outcome.",
            ("outcome",),
        )
        tiers: Dict[str, int] = {}
        satisfied = violated = 0
        inst_latency = registry.histogram(
            "repro_instance_latency_seconds",
            "Submit-to-decision latency of finished instances.",
            DURATION_BUCKETS,
        )
        for outcome in service.outcomes.values():
            tiers[outcome.tier] = tiers.get(outcome.tier, 0) + 1
            if outcome.ok:
                satisfied += 1
            else:
                violated += 1
            inst_latency.observe(outcome.latency)
        outcomes.set(len(service.outcomes), outcome="decided")
        tier_counter = registry.counter(
            "repro_tier_verdicts_total",
            "Per-instance D.1-D.4 guarantee-tier verdicts "
            "(byzantine: f<=m; degraded: m<f<=u; none: f>u).",
            ("tier",),
        )
        for tier in ("byzantine", "degraded", "none"):
            tier_counter.set(tiers.get(tier, 0), tier=tier)
        contracts = registry.counter(
            "repro_instance_contracts_total",
            "Finished instances by contract verdict.",
            ("verdict",),
        )
        contracts.set(satisfied, verdict="satisfied")
        contracts.set(violated, verdict="violated")

    if bus is not None:
        events = registry.counter(
            "repro_obs_events_total",
            "Observability events published, by kind.",
            ("kind",),
        )
        for kind in sorted(bus.counts):
            events.set(bus.counts[kind], kind=kind)
        registry.counter(
            "repro_obs_subscriber_errors_total",
            "Event-bus subscriber callbacks that raised.",
        ).set(bus.subscriber_errors)
        registry.counter(
            "repro_obs_events_dropped_total",
            "Events evicted from the bounded ring buffer "
            "(no longer replayable via /events).",
        ).set(bus.events_dropped)

    if tracer is not None:
        by_category = tracer.durations_by_category()
        span_counter = registry.counter(
            "repro_spans_total",
            "Finished trace spans, by instrumented layer.",
            ("category",),
        )
        span_duration = registry.histogram(
            "repro_span_duration_seconds",
            "Duration of finished trace spans, by instrumented layer.",
            DURATION_BUCKETS,
            ("category",),
        )
        for category in sorted(by_category):
            durations_list = by_category[category]
            span_counter.set(len(durations_list), category=category)
            span_duration.observe_many(durations_list, category=category)

    return registry
