"""One-shot observability snapshots from recorded trace records.

``repro stats FILE`` renders a snapshot without a live service: point it
at a ``repro.trace/v1`` JSONL record (``repro run/net/serve --trace``)
and it re-derives event counts and round structure from the recorded
trace.

``--prom`` emits the snapshot as Prometheus text exposition instead of
the human table, so one recorded run can be scraped into the same
dashboards as a live one.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.prom import Exposition, parse_exposition

__all__ = ["render_snapshot"]


def render_snapshot(path: str, prom: bool = False) -> str:
    """Render the trace record at *path* as a one-shot snapshot.

    Raises :class:`~repro.exceptions.TraceFormatError` for a file that is
    not a ``repro.trace/v1`` record.
    """
    from repro.verify.record import RunRecord

    record = RunRecord.load(path)
    kinds: Dict[str, int] = {}
    rounds = set()
    for event in record.trace.events:
        kind = getattr(event.kind, "value", str(event.kind))
        kinds[kind] = kinds.get(kind, 0) + 1
        rounds.add(event.round_no)
    if prom:
        out = Exposition()
        out.add(
            "repro_trace_info", "gauge", "Recorded run identity.",
            {(str(record.mode), str(record.transport or "unknown")): 1},
            ("mode", "transport"),
        )
        out.add(
            "repro_trace_rounds_total", "gauge",
            "Rounds present in the trace.", len(rounds),
        )
        out.add(
            "repro_trace_nodes_total", "gauge",
            "Nodes in the recorded run.", len(record.nodes),
        )
        out.add(
            "repro_trace_events_total", "counter",
            "Recorded trace events by kind.", kinds, ("kind",),
        )
        text = out.render()
        parse_exposition(text)  # self-check: never emit malformed lines
        return text
    lines = [
        f"trace record ({path})",
        f"  mode={record.mode}  transport={record.transport or 'unknown'}  "
        f"nodes={len(record.nodes)}  rounds={len(rounds)}  "
        f"events={sum(kinds.values())}",
    ]
    for kind in sorted(kinds):
        lines.append(f"    {kind:<12} {kinds[kind]}")
    return "\n".join(lines)
