"""Per-round critical-path analysis over a span set.

A round's latency is determined by whichever chain of work kept its
collection window open longest: a retry-backoff burst on one link, a
deadline ride-out waiting on a silent peer, or (in the happy case) just
the slowest ordinary send.  :func:`critical_paths` reduces a run's spans
to one :class:`RoundPath` per (instance, round), each naming its
dominant cost — the summary the ``repro trace`` verb prints as e.g.::

    round 3 [i0002]: 0.52s, dominated by retry backoff on link S->p2 (0.41s)

Degradation forensics: a round with any deadline ride-out is flagged
``degraded`` — the runner substituted V_d for the absent peer per
assumption (b) — and :func:`cross_link` joins those ride-outs to the
``repro.verify`` trace's TIMEOUT records by (instance, round, link), so
the span story and the conformance-oracle story can be checked against
each other.  :func:`trace_report` is the whole end-of-run report: export,
critical-path summary and cross-link, as lines and a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .export import validate_spans, write_perfetto, write_spans
from .spans import Span, Tracer

__all__ = [
    "CostEntry", "RoundPath", "critical_paths", "summary_lines", "cross_link",
    "trace_report",
]


@dataclass
class CostEntry:
    """One contributor to a round's latency."""

    kind: str  # "timeout" | "heal" | "send"
    link: str
    seconds: float
    description: str


@dataclass
class RoundPath:
    """The cost breakdown of one (instance, round)."""

    instance: Optional[str]
    round_no: int
    duration: float
    costs: List[CostEntry] = field(default_factory=list)

    @property
    def dominant(self) -> Optional[CostEntry]:
        if not self.costs:
            return None
        return max(self.costs, key=lambda c: c.seconds)

    @property
    def degraded(self) -> bool:
        """True when any peer was ridden out to the deadline (V_d path)."""
        return any(c.kind == "timeout" for c in self.costs)

    @property
    def timeout_links(self) -> List[str]:
        return sorted(c.link for c in self.costs if c.kind == "timeout")


def _round_key(span: Span) -> Tuple[Optional[str], int]:
    return (span.instance, span.round_no or 0)


def critical_paths(spans: Sequence[Span]) -> List[RoundPath]:
    """One :class:`RoundPath` per (instance, round), in run order.

    Cost extraction per span name:

    * ``round`` — defines the round's wall duration.
    * ``collect`` — each ``timeout`` event inside it is a deadline
      ride-out on the silent link (charged the full collect duration,
      since the window stayed open for exactly that absence).
    * ``link_heal`` — a supervision retry-backoff burst on its link.
    * ``send`` — ordinary send latency; only sends that failed
      (``ok=False``) are charged, the rest are noise below any
      interesting path.
    """
    rounds: Dict[Tuple[Optional[str], int], RoundPath] = {}
    order: List[Tuple[Optional[str], int]] = []

    def entry(span: Span) -> RoundPath:
        key = _round_key(span)
        if key not in rounds:
            rounds[key] = RoundPath(
                instance=span.instance, round_no=key[1], duration=0.0
            )
            order.append(key)
        return rounds[key]

    for span in spans:
        if span.end is None or span.round_no is None:
            continue
        if span.name == "round":
            path = entry(span)
            path.duration = max(path.duration, span.duration)
        elif span.name == "collect":
            path = entry(span)
            for ev in span.events:
                if ev.name != "timeout":
                    continue
                peer = ev.attrs.get("peer", span.source or "?")
                node = ev.attrs.get("node", span.destination or "?")
                link = f"{peer}->{node}"
                path.costs.append(
                    CostEntry(
                        kind="timeout",
                        link=link,
                        seconds=span.duration,
                        description=(
                            f"deadline ride-out waiting on {link}"
                        ),
                    )
                )
        elif span.name == "link_heal":
            path = entry(span)
            path.costs.append(
                CostEntry(
                    kind="heal",
                    link=span.link,
                    seconds=span.duration,
                    description=f"retry backoff on link {span.link}",
                )
            )
        elif span.name == "send" and not span.attrs.get("ok", True):
            path = entry(span)
            path.costs.append(
                CostEntry(
                    kind="send",
                    link=span.link,
                    seconds=span.duration,
                    description=f"failed send on link {span.link}",
                )
            )
    return [rounds[key] for key in order]


def summary_lines(paths: Sequence[RoundPath]) -> List[str]:
    """Human-readable one-liner per round (the ``repro trace`` summary)."""
    lines = []
    for path in paths:
        scope = f" [{path.instance}]" if path.instance is not None else ""
        head = f"round {path.round_no}{scope}: {path.duration:.3f}s"
        dom = path.dominant
        if dom is None:
            lines.append(f"{head}, clean (no retries or ride-outs)")
        else:
            flag = " DEGRADED" if path.degraded else ""
            lines.append(
                f"{head}, dominated by {dom.description}"
                f" ({dom.seconds:.3f}s){flag}"
            )
    return lines


def cross_link(
    paths: Sequence[RoundPath], trace_events: Sequence[object]
) -> List[str]:
    """Join span ride-outs to repro.verify TIMEOUT records.

    *trace_events* is an :class:`~repro.verify.trace.EventTrace`'s event
    list (or any objects with ``kind``/``round_no``/``source``/
    ``destination``/``instance`` attributes).  Returns one discrepancy
    string per mismatch — a span-side ride-out with no TIMEOUT record at
    the same (instance, round, link) or vice versa.  Empty means the two
    observability layers tell the same story.
    """
    span_side = set()
    for path in paths:
        for link in path.timeout_links:
            span_side.add((path.instance, path.round_no, link))
    verify_side = set()
    for ev in trace_events:
        kind = getattr(ev, "kind", None)
        kind_name = getattr(kind, "name", None) or str(kind)
        if "TIMEOUT" not in kind_name.upper():
            continue
        link = f"{getattr(ev, 'source', '?')}->{getattr(ev, 'destination', '?')}"
        # Multi-instance traces stamp the instance into the event's meta
        # (that's the demux key repro.serve uses); single-instance traces
        # carry neither an attribute nor a meta key.
        inst = getattr(ev, "instance", None)
        if inst is None:
            inst = (getattr(ev, "meta", None) or {}).get("instance")
        inst = None if inst is None else str(inst)
        verify_side.add((inst, getattr(ev, "round_no", 0), link))
    problems = []
    for key in sorted(span_side - verify_side, key=str):
        problems.append(
            f"span ride-out {key} has no verify TIMEOUT record"
        )
    for key in sorted(verify_side - span_side, key=str):
        problems.append(
            f"verify TIMEOUT record {key} has no span ride-out"
        )
    return problems


def trace_report(
    tracer: Tracer,
    trace_events: Sequence[object],
    spans_path: str = "",
    perfetto_path: str = "",
) -> Tuple[List[str], bool]:
    """Close, export and analyse *tracer*'s spans; return lines and a verdict.

    Writes the lossless span log and the Perfetto JSON where a path is
    given, summarizes each round's critical path, and cross-checks the
    span-side deadline ride-outs against the TIMEOUT records among
    *trace_events* (the run's :mod:`repro.verify` trace).  The verdict is
    False when the spans fail :func:`validate_spans` or the two views
    disagree.
    """
    abandoned = tracer.close_open()
    spans = tracer.spans
    lines = [
        f"spans: {len(spans)} recorded, trace id {tracer.trace_id}"
        + (f", {abandoned} closed at export (cancelled mid-run)" if abandoned else "")
    ]
    problems = validate_spans(spans)
    if spans_path:
        write_spans(spans_path, spans, tracer=tracer)
        lines.append(f"  span log written to {spans_path}")
    if perfetto_path:
        write_perfetto(perfetto_path, spans, tracer=tracer)
        lines.append(
            f"  perfetto trace written to {perfetto_path} "
            f"(open at https://ui.perfetto.dev)"
        )

    paths = critical_paths(spans)
    lines += ["", "critical path:"]
    lines += [f"  {line}" for line in summary_lines(paths)]
    degraded = [p for p in paths if p.degraded]
    if degraded:
        lines.append(
            f"  {len(degraded)} degraded round(s): deadline ride-outs "
            f"substituted V_d per assumption (b)"
        )

    discrepancies = cross_link(paths, trace_events)
    lines.append("")
    if discrepancies:
        lines.append("span/verify cross-check: MISMATCH")
        lines += [f"  !! {item}" for item in discrepancies]
    else:
        lines.append(
            "span/verify cross-check: consistent (every span-side "
            "ride-out matches a TIMEOUT trace record)"
        )
    if problems:
        lines.append("span validation: FAILED")
        lines += [f"  !! {item}" for item in problems]
    return lines, not problems and not discrepancies
