"""Human-readable narration of protocol executions.

Debugging a Byzantine agreement run means answering "who told whom what,
and why did the vote land there?".  :func:`narrate_execution` runs the
message-passing protocol with a trace and renders the full story:

* each round's messages, grouped by relay path, with corrupted values
  flagged against what an honest node would have sent;
* each receiver's final ballot sheet and vote;
* the classified outcome.

Used by ``python -m repro run --verbose`` and handy in tests when a
condition check fails and you need to see the execution, not just the
verdict.
"""

from __future__ import annotations

from typing import AbstractSet, Hashable, List, Optional, Sequence

from repro.core.behavior import BehaviorMap
from repro.core.conditions import classify
from repro.core.protocol import execute_degradable_protocol
from repro.core.spec import DegradableSpec
from repro.core.values import Value
from repro.sim.messages import RelayPayload
from repro.sim.trace import EventKind

NodeId = Hashable


def narrate_execution(
    spec: DegradableSpec,
    nodes: Sequence[NodeId],
    sender: NodeId,
    sender_value: Value,
    behaviors: Optional[BehaviorMap] = None,
    faulty: Optional[AbstractSet[NodeId]] = None,
    max_messages_per_round: int = 24,
) -> str:
    """Execute and narrate one agreement instance.

    ``faulty`` defaults to the behaviour map's keys.  Long rounds are
    elided after *max_messages_per_round* lines (the counts always print).
    """
    faulty = frozenset(faulty if faulty is not None else (behaviors or {}))
    result, engine = execute_degradable_protocol(
        spec, nodes, sender, sender_value, behaviors
    )
    trace = engine.trace
    lines: List[str] = []
    lines.append(f"{spec}; sender {sender!r} holds {sender_value!r}")
    if faulty:
        lines.append(f"faulty nodes: {sorted(map(str, faulty))}")

    corrupted = {
        (e.round_no, e.source, e.destination, _payload_key(e.payload))
        for e in trace.events
        if e.kind is EventKind.CORRUPTED
    }

    for round_no in range(1, engine.current_round + 1):
        delivered = [
            e
            for e in trace.events
            if e.kind is EventKind.DELIVERED and e.round_no == round_no
        ]
        if not delivered:
            continue
        lines.append(f"\nround {round_no} — {len(delivered)} messages delivered")
        shown = 0
        for event in delivered:
            if shown >= max_messages_per_round:
                lines.append(f"  ... {len(delivered) - shown} more elided")
                break
            payload = event.payload
            if not isinstance(payload, RelayPayload):
                continue
            flag = ""
            if (
                event.round_no - 1,
                event.source,
                event.destination,
                _payload_key(payload),
            ) in corrupted or event.source in faulty:
                flag = "   <- from a faulty node" if event.source in faulty else ""
            path_str = ">".join(str(p) for p in payload.path)
            lines.append(
                f"  [{path_str}] {event.source} -> {event.destination}: "
                f"{payload.value!r}{flag}"
            )
            shown += 1

    lines.append("\ndecisions:")
    for node in sorted(result.decisions, key=str):
        marker = "x" if node in faulty else " "
        lines.append(f"  [{marker}] {node} decided {result.decisions[node]!r}")

    report = classify(result, faulty, spec)
    lines.append(
        f"\noutcome: shape={report.shape.value}, regime={report.regime}, "
        f"contract {'SATISFIED' if report.satisfied else 'VIOLATED'}"
    )
    for violation in report.violations:
        lines.append(f"  !! {violation}")
    return "\n".join(lines)


def _payload_key(payload) -> object:
    if isinstance(payload, RelayPayload):
        return (payload.path, payload.value)
    return payload
