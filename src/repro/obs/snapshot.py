"""One-shot observability snapshots from run/record artifacts.

``repro stats FILE`` renders a snapshot without a live service: point it
at any artifact the toolkit writes and it detects the shape —

* ``BENCH_serve.json`` (``repro.bench.serve/v1``) — the load report,
  including the mid-run ``/metrics`` sample the generator embedded;
* a ``repro.trace/v1`` JSONL record (``repro run/net/serve --trace``) —
  event counts and round structure re-derived from the recorded trace.

``--prom`` emits the snapshot as Prometheus text exposition instead of
the human table, so one recorded artifact can be scraped into the same
dashboards as a live run.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

from repro.obs.prom import Registry, parse_exposition

__all__ = ["render_snapshot"]


def _load_first_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        first_line = handle.readline()
        try:
            first = json.loads(first_line)
        except json.JSONDecodeError:
            handle.seek(0)
            first = json.load(handle)
            return first
        if isinstance(first, dict) and first.get("schema") == "repro.trace/v1":
            return first  # JSONL header; the caller re-loads the record
        handle.seek(0)
        return json.load(handle)


def _serve_snapshot(report: dict, prom: bool) -> str:
    config = report.get("config", {})
    latency = report.get("latency_s", {})
    if prom:
        registry = Registry()
        registry.gauge(
            "repro_load_instances_done", "Instances the load run finished."
        ).set(report.get("instances_done", 0))
        registry.gauge(
            "repro_load_throughput_per_second", "Sustained decisions/s."
        ).set(report.get("throughput_per_s", 0.0))
        registry.counter(
            "repro_load_rejections_total", "Admission-control rejections."
        ).set(report.get("rejections", 0))
        registry.counter(
            "repro_load_dropped_submits_total",
            "Submits abandoned after exhausting retry-after backoff.",
        ).set(report.get("dropped_submits", 0))
        quantiles = registry.gauge(
            "repro_load_latency_seconds",
            "Submit-to-decision latency quantiles.",
            ("quantile",),
        )
        for name in sorted(latency):
            quantiles.set(latency[name], quantile=name)
        text = registry.render()
        sample = report.get("metrics_sample")
        if sample and sample.get("exposition"):
            text += "".join(
                line + "\n" for line in sample["exposition"]
            )
        return text
    lines = [
        f"load report ({report.get('schema')})",
        f"  config: m={config.get('m')} u={config.get('u')} "
        f"N={config.get('n_nodes')} mode={config.get('mode')} "
        f"transport={config.get('transport')} seed={config.get('seed')}",
        f"  instances_done={report.get('instances_done')}  "
        f"throughput={report.get('throughput_per_s')}/s  "
        f"rejections={report.get('rejections')}  "
        f"dropped={report.get('dropped_submits')}",
        "  latency "
        + "  ".join(
            f"{name}={latency[name] * 1000:.1f}ms" for name in sorted(latency)
        ),
        f"  ok={report.get('ok')}",
    ]
    sample = report.get("metrics_sample")
    if sample:
        lines.append(
            f"  metrics sample: {sample.get('samples', 0)} series scraped "
            f"mid-run from {sample.get('endpoint', '/metrics')}"
        )
    return "\n".join(lines)


def _trace_snapshot(path: str, prom: bool) -> str:
    from repro.verify.record import RunRecord

    record = RunRecord.load(path)
    kinds: Dict[str, int] = {}
    rounds = set()
    for event in record.trace.events:
        kind = getattr(event.kind, "value", str(event.kind))
        kinds[kind] = kinds.get(kind, 0) + 1
        rounds.add(event.round_no)
    if prom:
        registry = Registry()
        info = registry.gauge(
            "repro_trace_info", "Recorded run identity.",
            ("mode", "transport"),
        )
        info.set(
            1,
            mode=str(record.mode),
            transport=str(record.transport or "unknown"),
        )
        registry.gauge(
            "repro_trace_rounds_total", "Rounds present in the trace."
        ).set(len(rounds))
        registry.gauge(
            "repro_trace_nodes_total", "Nodes in the recorded run."
        ).set(len(record.nodes))
        counter = registry.counter(
            "repro_trace_events_total",
            "Recorded trace events by kind.",
            ("kind",),
        )
        for kind in sorted(kinds):
            counter.set(kinds[kind], kind=kind)
        return registry.render()
    lines = [
        f"trace record ({path})",
        f"  mode={record.mode}  transport={record.transport or 'unknown'}  "
        f"nodes={len(record.nodes)}  rounds={len(rounds)}  "
        f"events={sum(kinds.values())}",
    ]
    for kind in sorted(kinds):
        lines.append(f"    {kind:<12} {kinds[kind]}")
    return "\n".join(lines)


def render_snapshot(path: str, prom: bool = False) -> Tuple[str, bool]:
    """Render *path* as a one-shot snapshot.

    Returns ``(text, ok)``; ``ok=False`` marks an artifact that records a
    failed gate (divergences, dropped submits) so the CLI can exit 1 while
    still printing the snapshot.  Raises ``ValueError`` for files that
    are not a known artifact shape.
    """
    head = _load_first_json(path)
    schema = head.get("schema") if isinstance(head, dict) else None
    if schema == "repro.bench.serve/v1":
        text = _serve_snapshot(head, prom)
        if prom:
            parse_exposition(text)  # self-check: never emit malformed lines
        return text, bool(head.get("ok", True))
    if schema == "repro.trace/v1":
        text = _trace_snapshot(path, prom)
        if prom:
            parse_exposition(text)
        return text, True
    raise ValueError(
        f"{path}: unrecognized artifact (schema={schema!r}); expected a "
        f"repro.bench.serve/v1 or repro.trace/v1 file"
    )
