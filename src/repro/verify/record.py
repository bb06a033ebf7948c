"""Self-contained run records: one trace plus the header that judges it.

A trace alone cannot be audited — the checker needs to know the spec
(``m``, ``u``, ``N``), the node set, who the sender was and which nodes
were faulty (by assignment or by chaos affliction).  A :class:`RunRecord`
bundles exactly that and serializes to a single JSONL file:

* line 1 — the header object, ``{"schema": "repro.trace/v1", ...}``;
* every further line — one trace event in the canonical encoding of
  :mod:`repro.sim.trace`.

Records also carry a :meth:`~RunRecord.fingerprint`: a SHA-256 over the
header and the *sorted* event lines.  Sorting makes the fingerprint
insensitive to cross-node arrival interleaving (TCP collection order is
scheduler-dependent) while staying sensitive to any change in what was
actually sent, delivered, substituted or decided — which is what the
chaos-replay guarantees in :mod:`repro.verify.fuzz` pin down.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, FrozenSet, Hashable, Tuple

from repro.core.spec import DegradableSpec
from repro.exceptions import TraceFormatError
from repro.sim.jsonable import (
    from_jsonable,
    lossy_json,
    raw_json,
    to_jsonable_lossy,
)
from repro.sim.trace import EventTrace, event_from_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.byz import AgreementResult
    from repro.net.runner import NetRunOutcome
    from repro.sim.engine import SynchronousEngine

NodeId = Hashable

SCHEMA = "repro.trace/v1"


@dataclass(frozen=True)
class RunRecord:
    """One audited execution: header + canonical event trace."""

    spec: DegradableSpec
    nodes: Tuple[NodeId, ...]
    sender: NodeId
    sender_value: object
    #: Nodes that were faulty in this execution — behaviour assignments
    #: plus (for chaos runs) every node the chaos layer afflicted.  The
    #: oracle only re-derives vote trees for nodes *outside* this set.
    faulty: FrozenSet[NodeId]
    trace: EventTrace
    #: ``"sync"`` (lock-step engine) or ``"net"`` (async runner).
    mode: str = "sync"
    #: Transport name for net runs (``"local"``, ``"tcp"``, ...); ``"sim"``
    #: for synchronous executions.
    transport: str = "sim"
    batched: bool = False
    tag: str = "byz"
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def header(self) -> str:
        """The header line: canonical JSON text, keys in sorted order.

        Written with the same canonical-text kernel as the event lines
        (:func:`repro.sim.trace.event_to_json`); ``faulty`` keeps its
        historical order — sorted by the ``repr`` of each node's tagged
        form — so the line, and every fingerprint over it, is unchanged.
        """
        nodes = ",".join([lossy_json(n) for n in self.nodes])
        faulty = ",".join(
            [
                lossy_json(n)
                for n in sorted(
                    self.faulty, key=lambda n: repr(to_jsonable_lossy(n))
                )
            ]
        )
        return (
            f'{{"batched":{raw_json(self.batched)},'
            f'"faulty":[{faulty}],'
            f'"m":{raw_json(self.spec.m)},'
            f'"meta":{lossy_json(self.meta)},'
            f'"mode":{raw_json(self.mode)},'
            f'"n_nodes":{raw_json(self.spec.n_nodes)},'
            f'"nodes":[{nodes}],'
            f'"schema":{raw_json(SCHEMA)},'
            f'"sender":{lossy_json(self.sender)},'
            f'"sender_value":{lossy_json(self.sender_value)},'
            f'"tag":{raw_json(self.tag)},'
            f'"transport":{raw_json(self.transport)},'
            f'"u":{raw_json(self.spec.u)}}}'
        )

    def to_jsonl(self) -> str:
        return "\n".join([self.header()] + self.trace.lines())

    @classmethod
    def from_jsonl(cls, text: str) -> "RunRecord":
        lines = text.splitlines()
        while lines and not lines[0].strip():
            lines.pop(0)
        if not lines:
            raise TraceFormatError("empty trace file: no header line")
        try:
            raw = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"malformed header line: {exc}") from exc
        if not isinstance(raw, dict) or raw.get("schema") != SCHEMA:
            raise TraceFormatError(
                f"not a {SCHEMA} record: first line must be the run header "
                f"(got {str(lines[0])[:80]!r})"
            )
        try:
            spec = DegradableSpec(
                m=int(raw["m"]), u=int(raw["u"]), n_nodes=int(raw["n_nodes"])
            )
            record = cls(
                spec=spec,
                nodes=tuple(from_jsonable(n) for n in raw["nodes"]),
                sender=from_jsonable(raw["sender"]),
                sender_value=from_jsonable(raw["sender_value"]),
                faulty=frozenset(from_jsonable(n) for n in raw["faulty"]),
                trace=EventTrace(),
                mode=raw.get("mode", "sync"),
                transport=raw.get("transport", "sim"),
                batched=bool(raw.get("batched", False)),
                tag=raw.get("tag", "byz"),
                meta=from_jsonable(raw.get("meta")) or {},
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise TraceFormatError(f"malformed run header: {exc}") from exc
        trace = EventTrace()
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            trace.record(event_from_json(line, where=f"line {lineno}"))
        return replace(record, trace=trace)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "RunRecord":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls.from_jsonl(handle.read())
        except OSError as exc:
            raise TraceFormatError(f"cannot read trace {path!r}: {exc}") from exc

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """SHA-256 over the header plus the *sorted* event lines.

        Event lines are sorted before hashing so concurrent collection
        (TCP frames interleaving across nodes) does not perturb the
        fingerprint; everything semantically meaningful — who sent,
        delivered, substituted and decided what in which round — still
        lands in the hash.

        The bytes hashed are the header line, then each event line behind
        a newline, lines in sorted order — taken from the line list as
        written, never from a joined text split again: a line is
        ASCII-only and holds no line break
        (:func:`~repro.sim.trace.event_to_json`), so both give the same
        bytes.  ``tests/sim/reference_trace.py`` keeps the old computation.
        """
        lines = sorted(self.trace.lines())
        lines.insert(0, self.header())
        return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


# ----------------------------------------------------------------------
# Builders for the two runtimes
# ----------------------------------------------------------------------
def record_sync_run(
    spec: DegradableSpec,
    nodes,
    sender,
    sender_value,
    faulty,
    engine: "SynchronousEngine",
    result: "AgreementResult" = None,
    tag: str = "byz",
) -> RunRecord:
    """Package a finished synchronous execution for auditing."""
    if engine.trace is None:
        raise TraceFormatError(
            "synchronous engine ran with record_trace=False; nothing to audit"
        )
    return RunRecord(
        spec=spec,
        nodes=tuple(nodes),
        sender=sender,
        sender_value=sender_value,
        faulty=frozenset(faulty),
        trace=engine.trace,
        mode="sync",
        transport="sim",
        batched=False,
        tag=tag,
    )


def record_net_outcome(
    spec: DegradableSpec,
    nodes,
    sender,
    sender_value,
    faulty,
    outcome: "NetRunOutcome",
    batched: bool = True,
    tag: str = "byz",
) -> RunRecord:
    """Package a finished async execution for auditing.

    *faulty* must already include chaos-afflicted nodes
    (``outcome.chaos.afflicted``) when the run was executed under a chaos
    policy — affliction is fault placement, and the oracle must not try to
    re-derive an afflicted node's tree.
    """
    if outcome.trace is None:
        raise TraceFormatError(
            "async run executed with record_trace=False; nothing to audit"
        )
    return RunRecord(
        spec=spec,
        nodes=tuple(nodes),
        sender=sender,
        sender_value=sender_value,
        faulty=frozenset(faulty),
        trace=outcome.trace,
        mode="net",
        transport=outcome.metrics.transport or "local",
        batched=batched,
        tag=tag,
    )
