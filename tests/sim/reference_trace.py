"""The pre-kernel trace line writer, kept verbatim as the differential oracle.

These are the bodies ``repro.sim.trace.event_to_json``,
``repro.sim.jsonable.to_jsonable_lossy`` and ``RunRecord.header`` /
``to_jsonl`` / ``fingerprint`` had before trace lines were written straight
from the event: ``to_jsonable_lossy`` -> dict tree ->
``json.dumps(sort_keys=True)`` per event, and a fingerprint that joined the
lines into one text only to split it again.  Nothing here is imported by
``src/``; ``test_trace_differential.py`` requires the live writer to agree
with it byte for byte.  Do not "fix" or speed up this file — it is the
definition of the ``repro.trace/v1`` line format, and every pinned
fingerprint and golden trace in the suite is a hash of its output.
"""

import hashlib
import json
from typing import Any

from repro.exceptions import TransportError
from repro.sim.jsonable import TAG
from repro.sim.trace import EventTrace, TraceEvent
from repro.verify.record import SCHEMA, RunRecord

from tests.net.reference_codec import to_jsonable


def to_jsonable_lossy(value: Any) -> Any:
    """Like :func:`to_jsonable`, but never fails."""
    try:
        return to_jsonable(value)
    except TransportError:
        return {TAG: "opaque", "text": repr(value)}


def event_to_json(event: TraceEvent) -> str:
    """One canonical JSON line for *event* (sorted keys, no whitespace)."""
    return json.dumps(
        {
            "round": event.round_no,
            "kind": event.kind.value,
            "source": to_jsonable_lossy(event.source),
            "destination": to_jsonable_lossy(event.destination),
            "payload": to_jsonable_lossy(event.payload),
            "note": event.note,
            "meta": to_jsonable_lossy(event.meta),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def trace_to_jsonl(trace: EventTrace) -> str:
    return "\n".join(event_to_json(event) for event in trace.events)


def header(record: RunRecord) -> dict:
    return {
        "schema": SCHEMA,
        "m": record.spec.m,
        "u": record.spec.u,
        "n_nodes": record.spec.n_nodes,
        "nodes": [to_jsonable_lossy(n) for n in record.nodes],
        "sender": to_jsonable_lossy(record.sender),
        "sender_value": to_jsonable_lossy(record.sender_value),
        "faulty": sorted(
            (to_jsonable_lossy(n) for n in record.faulty), key=repr
        ),
        "mode": record.mode,
        "transport": record.transport,
        "batched": record.batched,
        "tag": record.tag,
        "meta": to_jsonable_lossy(record.meta),
    }


def header_line(record: RunRecord) -> str:
    return json.dumps(header(record), sort_keys=True, separators=(",", ":"))


def record_to_jsonl(record: RunRecord) -> str:
    header_line = json.dumps(
        header(record), sort_keys=True, separators=(",", ":")
    )
    body = trace_to_jsonl(record.trace)
    return header_line + ("\n" + body if body else "")


def fingerprint(record: RunRecord) -> str:
    """SHA-256 over the header plus the *sorted* event lines."""
    digest = hashlib.sha256()
    digest.update(
        json.dumps(
            header(record), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    )
    for line in sorted(trace_to_jsonl(record.trace).splitlines()):
        digest.update(b"\n")
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()
