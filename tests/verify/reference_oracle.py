"""The pre-bucketing conformance oracle, kept verbatim as a differential oracle.

These are the bodies ``repro.verify.oracle.verify_record`` and its helpers
had while every check rescanned the whole event tuple: ``instance_ids()``,
``_index_sends``, ``_collect_decisions``, ``_check_expected_events`` once
each, and ``_deliveries_for`` plus the ``defaulted`` scan once per
receiver.  Only the report types and violation codes are imported from
the live module, so the two reports compare equal field by field.
Nothing here is imported by ``src/``; ``test_oracle_differential.py``
requires the live oracle to agree with it on every record.  Do not "fix"
or speed up this file.
"""

from typing import Dict, List, Tuple

from repro.core.byz import AgreementResult, ExecutionStats
from repro.core.conditions import classify
from repro.core.values import DEFAULT
from repro.exceptions import VerificationError
from repro.sim.messages import RelayPayload
from repro.sim.trace import EventKind, TraceEvent
from repro.verify.oracle import (
    ABSENCE_UNRECORDED,
    EXPECTED_MISMATCH,
    FORGED_RELAY,
    MISSING_DECISION,
    ROUND_STRUCTURE,
    SCHEMA,
    SENDER_DECISION,
    SPURIOUS_DEFAULT,
    TIER_D1,
    TIER_D2,
    TIER_D3,
    TIER_D4,
    UNSENT_DELIVERY,
    VOTE_MISMATCH,
    ConformanceReport,
    NodeId,
    PathT,
    Violation,
)
from repro.verify.record import RunRecord


# ----------------------------------------------------------------------
# Independent vote fold (no repro.core.eig / repro.core.vote reuse)
# ----------------------------------------------------------------------
def _independent_vote(alpha: int, ballots: List[object]) -> object:
    """From-scratch ``VOTE(alpha, beta)``: equality-counted, tie → V_d."""
    tallies: List[List[object]] = []  # [value, count] pairs, equality-keyed
    for ballot in ballots:
        for entry in tallies:
            if entry[0] == ballot:
                entry[1] += 1
                break
        else:
            tallies.append([ballot, 1])
    winners = [value for value, count in tallies if count >= alpha]
    if len(winners) == 1:
        return winners[0]
    return DEFAULT


class _ReplayedTree:
    """Path→value store rebuilt purely from recorded deliveries."""

    def __init__(
        self,
        node: NodeId,
        nodes: Tuple[NodeId, ...],
        sender: NodeId,
        m: int,
        depth: int,
    ) -> None:
        self.node = node
        self.nodes = nodes
        self.sender = sender
        self.m = m
        self.depth = depth
        self.stored: Dict[PathT, object] = {}

    def store(self, path: PathT, value: object) -> None:
        self.stored[path] = value

    def expected_paths(self, length: int) -> List[PathT]:
        """Every legal path of *length* starting at the sender, enumerated
        from scratch (distinct hops, receiver excluded)."""
        paths: List[PathT] = []

        def extend(prefix: PathT) -> None:
            if len(prefix) == length:
                paths.append(prefix)
                return
            for hop in self.nodes:
                if hop in prefix or hop == self.node:
                    continue
                extend(prefix + (hop,))

        if self.node != self.sender and 1 <= length <= self.depth:
            extend((self.sender,))
        return paths

    def path_is_legal(self, path: PathT) -> bool:
        if not path or path[0] != self.sender or self.node in path:
            return False
        if len(set(path)) != len(path) or len(path) > self.depth:
            return False
        return all(hop in self.nodes for hop in path)

    def fold(self, path: PathT) -> object:
        """Re-derive the decision contribution of *path* bottom-up."""
        if len(path) >= self.depth:
            return self.stored.get(path, DEFAULT)
        n_pi = len(self.nodes) - len(path) + 1
        alpha = n_pi - 1 - self.m
        ballots: List[object] = [self.stored.get(path, DEFAULT)]
        for child in self.nodes:
            if child in path or child == self.node:
                continue
            ballots.append(self.fold(path + (child,)))
        return _independent_vote(alpha, ballots)

    def decision(self) -> object:
        return self.fold((self.sender,))


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def verify_record(record: RunRecord) -> ConformanceReport:
    """Run every conformance check over *record* and report violations."""
    spec = record.spec
    nodes = record.nodes
    if len(nodes) != spec.n_nodes:
        raise VerificationError(
            f"header names {len(nodes)} nodes but spec expects {spec.n_nodes}"
        )
    if record.sender not in nodes:
        raise VerificationError(
            f"header sender {record.sender!r} is not among the nodes"
        )
    unknown_faulty = record.faulty - frozenset(nodes)
    if unknown_faulty:
        raise VerificationError(
            f"header marks unknown nodes faulty: {sorted(map(repr, unknown_faulty))}"
        )
    instance_ids = record.trace.instance_ids()
    if len(instance_ids) > 1:
        raise VerificationError(
            f"trace interleaves {len(instance_ids)} protocol instances; the "
            f"oracle audits one instance at a time — split the record with "
            f"repro.verify.demux_record() and verify each sub-record "
            f"(the `repro verify` CLI does this automatically)"
        )

    depth = spec.rounds
    tier = spec.guarantee_for(len(record.faulty))
    fault_free = [n for n in nodes if n not in record.faulty]
    receivers = [n for n in fault_free if n != record.sender]
    violations: List[Violation] = []

    events = record.trace.events
    sent_index = _index_sends(events)
    decided = _collect_decisions(record, events, depth, violations)

    for node in sorted(receivers, key=str):
        _check_receiver(
            record, node, depth, events, sent_index, decided, violations
        )

    _check_sender(record, decided, violations)
    _check_expected_events(record, depth, events, violations)
    _check_tier(record, tier, decided, violations)

    return ConformanceReport(
        record=record,
        tier=tier,
        checked=tuple(sorted(receivers, key=str)),
        decisions=dict(decided),
        violations=violations,
    )


# ----------------------------------------------------------------------
# Check implementations
# ----------------------------------------------------------------------
def _index_sends(events: Tuple[TraceEvent, ...]) -> Dict[tuple, List[object]]:
    """(round, source, destination) → payloads the runtime put in flight.

    ``corrupted`` events count as sends: an in-flight payload rewrite is
    the runtime's own doing (and is charged to fault accounting separately),
    so the rewritten payload legitimately arrives.
    """
    index: Dict[tuple, List[object]] = {}
    for event in events:
        if event.kind in (EventKind.SENT, EventKind.CORRUPTED):
            key = (event.round_no, event.source, event.destination)
            index.setdefault(key, []).append(event.payload)
    return index


def _collect_decisions(
    record: RunRecord,
    events: Tuple[TraceEvent, ...],
    depth: int,
    violations: List[Violation],
) -> Dict[NodeId, object]:
    decided: Dict[NodeId, object] = {}
    for event in events:
        if event.kind is not EventKind.DECIDED:
            continue
        node = event.source
        if node in decided:
            violations.append(
                Violation(
                    ROUND_STRUCTURE,
                    node,
                    event.round_no,
                    "node recorded more than one decision",
                )
            )
            continue
        expected_round = 1 if node == record.sender else depth + 1
        if event.round_no != expected_round and node not in record.faulty:
            violations.append(
                Violation(
                    ROUND_STRUCTURE,
                    node,
                    event.round_no,
                    f"decision recorded in round {event.round_no}, "
                    f"protocol prescribes round {expected_round}",
                )
            )
        decided[node] = event.payload
    return decided


def _deliveries_for(
    record: RunRecord, node: NodeId, events: Tuple[TraceEvent, ...]
) -> List[TraceEvent]:
    out = []
    for event in events:
        if event.kind is not EventKind.DELIVERED or event.destination != node:
            continue
        tag = (event.meta or {}).get("tag")
        if tag != record.tag:
            continue
        out.append(event)
    return out


def _check_receiver(
    record: RunRecord,
    node: NodeId,
    depth: int,
    events: Tuple[TraceEvent, ...],
    sent_index: Dict[tuple, List[object]],
    decided: Dict[NodeId, object],
    violations: List[Violation],
) -> None:
    """Replay *node*'s deliveries, audit them, and re-derive its decision."""
    spec = record.spec
    tree = _ReplayedTree(node, record.nodes, record.sender, spec.m, depth)
    total_rounds = depth + 1

    # --- replay deliveries with the ingest rules, flagging anomalies ---
    for event in _deliveries_for(record, node, events):
        source_faulty = event.source in record.faulty
        if event.round_no < 1 or event.round_no > total_rounds:
            violations.append(
                Violation(
                    ROUND_STRUCTURE,
                    node,
                    event.round_no,
                    f"delivery outside the protocol's {total_rounds} rounds",
                )
            )
            continue
        payload = event.payload
        if not isinstance(payload, RelayPayload):
            if not source_faulty:
                violations.append(
                    Violation(
                        FORGED_RELAY,
                        node,
                        event.round_no,
                        f"non-relay payload {payload!r} delivered from "
                        f"fault-free source {event.source!r}",
                    )
                )
            continue
        path = payload.path
        wave_length = event.round_no - 1
        if (
            len(path) != wave_length
            or not tree.path_is_legal(path)
            or path[-1] != event.source
        ):
            # The honest ingest silently discards these; a Byzantine source
            # may emit them freely, but a fault-free source cannot.
            if not source_faulty:
                violations.append(
                    Violation(
                        FORGED_RELAY,
                        node,
                        event.round_no,
                        f"malformed relay from fault-free source "
                        f"{event.source!r}: path={path!r} in wave "
                        f"{wave_length}",
                    )
                )
            continue
        if not source_faulty:
            key = (event.round_no - 1, event.source, node)
            candidates = sent_index.get(key, [])
            if not any(payload == candidate for candidate in candidates):
                violations.append(
                    Violation(
                        UNSENT_DELIVERY,
                        node,
                        event.round_no,
                        f"delivery {payload!r} from fault-free source "
                        f"{event.source!r} has no matching send in round "
                        f"{event.round_no - 1}",
                    )
                )
        tree.store(path, payload.value)

    # --- absence accounting: V_d substitutions must be exact -----------
    defaulted: Dict[PathT, int] = {}
    for event in events:
        if event.kind is not EventKind.DEFAULTED or event.source != node:
            continue
        path = event.payload if isinstance(event.payload, tuple) else None
        if path is None or not tree.path_is_legal(path):
            violations.append(
                Violation(
                    SPURIOUS_DEFAULT,
                    node,
                    event.round_no,
                    f"V_d substitution recorded for illegal path "
                    f"{event.payload!r}",
                )
            )
            continue
        if event.round_no != len(path) + 1:
            violations.append(
                Violation(
                    SPURIOUS_DEFAULT,
                    node,
                    event.round_no,
                    f"V_d substitution for wave-{len(path)} path {path!r} "
                    f"recorded in round {event.round_no}, expected "
                    f"{len(path) + 1}",
                )
            )
        defaulted[path] = defaulted.get(path, 0) + 1
        if path in tree.stored:
            violations.append(
                Violation(
                    SPURIOUS_DEFAULT,
                    node,
                    event.round_no,
                    f"V_d substitution shadows a real delivery for path "
                    f"{path!r}",
                )
            )
        else:
            tree.store(path, DEFAULT)

    for length in range(1, depth + 1):
        for path in tree.expected_paths(length):
            if path not in tree.stored:
                violations.append(
                    Violation(
                        ABSENCE_UNRECORDED,
                        node,
                        length + 1,
                        f"expected path {path!r} was neither delivered nor "
                        f"recorded as a V_d substitution",
                    )
                )
                # Proceed as the protocol would have, so one unaccounted
                # absence does not cascade into a spurious VOTE_MISMATCH.
                tree.store(path, DEFAULT)

    # --- vote arithmetic ----------------------------------------------
    if node not in decided:
        violations.append(
            Violation(
                MISSING_DECISION,
                node,
                depth + 1,
                "fault-free receiver recorded no decision",
            )
        )
        return
    rederived = tree.decision()
    recorded = decided[node]
    if rederived != recorded:
        violations.append(
            Violation(
                VOTE_MISMATCH,
                node,
                depth + 1,
                f"recorded decision {recorded!r} but the independent "
                f"VOTE(n-1-m, n-1) fold of the recorded deliveries yields "
                f"{rederived!r}",
            )
        )


def _check_sender(
    record: RunRecord,
    decided: Dict[NodeId, object],
    violations: List[Violation],
) -> None:
    if record.sender in record.faulty:
        return
    if record.sender not in decided:
        violations.append(
            Violation(
                MISSING_DECISION,
                record.sender,
                1,
                "fault-free sender recorded no decision",
            )
        )
        return
    if decided[record.sender] != record.sender_value:
        violations.append(
            Violation(
                SENDER_DECISION,
                record.sender,
                1,
                f"fault-free sender decided {decided[record.sender]!r} "
                f"instead of its own value {record.sender_value!r}",
            )
        )


def _structural_expected(
    record: RunRecord, depth: int, round_no: int, node: NodeId
) -> Tuple[NodeId, ...]:
    """Independent recompute of the protocol's per-round wait-sets."""
    if node == record.sender:
        return ()
    if round_no == 1:
        return (record.sender,)
    if 2 <= round_no <= depth:
        return tuple(
            sorted(
                (n for n in record.nodes if n != node and n != record.sender),
                key=str,
            )
        )
    return ()


def _check_expected_events(
    record: RunRecord,
    depth: int,
    events: Tuple[TraceEvent, ...],
    violations: List[Violation],
) -> None:
    """Recorded ``expected`` wait-sets must match the round schedule."""
    for event in events:
        if event.kind is not EventKind.EXPECTED:
            continue
        recorded = (
            tuple(event.payload) if isinstance(event.payload, tuple) else None
        )
        structural = _structural_expected(
            record, depth, event.round_no, event.source
        )
        if recorded != structural:
            violations.append(
                Violation(
                    EXPECTED_MISMATCH,
                    event.source,
                    event.round_no,
                    f"recorded wait-set {recorded!r} differs from the "
                    f"protocol's round schedule {structural!r}",
                )
            )


_TIER_CODES = (
    ("D.1", TIER_D1),
    ("D.2", TIER_D2),
    ("D.3", TIER_D3),
    ("D.4", TIER_D4),
)


def _check_tier(
    record: RunRecord,
    tier: str,
    decided: Dict[NodeId, object],
    violations: List[Violation],
) -> None:
    """Judge the recorded decisions against the D.1–D.4 tier for f_eff."""
    if tier == "none":
        # Beyond u faults nothing is promised; the record is archival only.
        return
    decisions = {
        node: value
        for node, value in decided.items()
        if node != record.sender
    }
    result = AgreementResult(
        decisions=decisions,
        sender=record.sender,
        sender_value=record.sender_value,
        stats=ExecutionStats(),
    )
    report = classify(result, record.faulty, record.spec)
    for message in report.violations:
        code = next(
            (code for text, code in _TIER_CODES if text in message), SCHEMA
        )
        violations.append(Violation(code, None, None, message))
