"""Differential test: the one-pass trace line writer against the reference.

``tests/sim/reference_trace.py`` holds the writer as it was —
``to_jsonable_lossy`` -> dict tree -> ``json.dumps(sort_keys=True)`` per
event, and a fingerprint over the joined-then-split text.  The live
``event_to_json`` / ``RunRecord.header`` / ``to_jsonl`` / ``fingerprint``
must agree with it on every event, every whole trace and every record:
same bytes, same hash.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import execute_degradable_protocol
from repro.core.scenario import Instance
from repro.core.spec import DegradableSpec
from repro.core.values import DEFAULT
from repro.net import LocalBus, run_agreement_async
from repro.net.codec import BATCH, DATA, MARK
from repro.sim.jsonable import Opaque
from repro.sim.messages import RelayPayload
from repro.sim.trace import EventKind, EventTrace, TraceEvent, event_from_json, event_to_json
from repro.verify import RunRecord, record_net_outcome, record_sync_run

from tests.conftest import node_names
from tests.net.test_codec_differential import _ints, _node_ids, _payloads, _texts, _values
from tests.sim import reference_trace as reference


class Unencodable:
    """Outside the wire domain, with a ``repr`` that does not move."""

    def __repr__(self):
        return "<unencodable naïve \ud800 'x'>"


_unencodable = st.sampled_from([Unencodable(), b"raw", frozenset({1}), 3 + 4j])
# An unencodable leaf somewhere inside an otherwise encodable container.
_tainted = st.one_of(
    _unencodable,
    st.builds(lambda good, bad: [good, {"k": (bad,)}], _values, _unencodable),
    st.builds(lambda good, bad: (good, [bad]), _values, _unencodable),
    st.builds(lambda good, bad: {"first": good, ("p", 1): bad}, _values, _unencodable),
)
_fields = st.one_of(_payloads, st.builds(Opaque, _texts), _tainted)
_metas = st.one_of(
    st.none(),
    st.builds(lambda tag: {"tag": tag}, _texts),
    st.builds(lambda instance: {"instance": instance}, _node_ids),
    st.builds(
        lambda kind, n, mark, late: {
            "frame": kind, "messages": n, "mark": mark, "frame_round": late,
        },
        st.sampled_from([DATA, MARK, BATCH]), st.integers(0, 40), st.booleans(), _ints,
    ),
    st.dictionaries(_texts, _fields, max_size=3),
    _tainted,
)
_events = st.builds(
    TraceEvent,
    round_no=st.one_of(st.integers(0, 9), _ints),
    kind=st.sampled_from(list(EventKind)),
    source=st.one_of(_node_ids, _tainted),
    destination=st.one_of(st.none(), _node_ids, _tainted),
    payload=_fields,
    note=_texts,
    meta=_metas,
)


@settings(max_examples=500, deadline=None)
@given(_events)
def test_event_lines_match_the_reference(event):
    line = event_to_json(event)
    assert line == reference.event_to_json(event)
    # What lets fingerprint() hash the line list as written.
    assert line.isascii() and line.splitlines() == [line]
    # Stable after the first conversion (opaque stays opaque).
    assert event_to_json(event_from_json(line)) == line


@pytest.mark.parametrize("kind", list(EventKind), ids=lambda kind: kind.value)
def test_every_kind_with_the_fields_the_runtimes_write(kind):
    for event in (
        TraceEvent(1, kind, "S", "p1", DEFAULT),
        TraceEvent(2, kind, "p1", None, ("S", "p2"), meta={"tag": "byz"}),
        TraceEvent(3, kind, "p2", "p3", None, note="by ByzantineRelayInjector",
                   meta={"frame": BATCH, "messages": 3, "mark": True, "instance": "op7"}),
        TraceEvent(1, kind, 0, 1, [float("inf"), float("nan"), -0.0, 1e22, True, 2**70]),
    ):
        assert event_to_json(event) == reference.event_to_json(event)


def test_an_unencodable_leaf_makes_the_whole_field_opaque():
    bad = Unencodable()
    event = TraceEvent(1, EventKind.SENT, "S", "p1", ["fine", ("also fine", bad)],
                       meta={"tag": "byz", "extra": bad})
    line = event_to_json(event)
    assert line == reference.event_to_json(event)
    decoded = event_from_json(line)
    assert decoded.payload == Opaque(repr(["fine", ("also fine", bad)]))
    assert decoded.meta == Opaque(repr({"tag": "byz", "extra": bad}))
    assert (decoded.source, decoded.destination) == ("S", "p1")


# ----------------------------------------------------------------------
# Whole traces: the per-call text memo
# ----------------------------------------------------------------------
# ``lines()`` writes each payload and meta *object* once per call, keyed by
# ``id()``; a single event cannot show whether that memo keys by identity.
# So: whole traces drawn from a small pool in which objects recur (a
# runner shares one meta per tag and frame shape), sit beside equal but
# distinct twins, and compare equal across types (``1``/``True``/``1.0``)
# — a memo keyed by value would write one's text for the other.  One dict
# fills both fields, since the two share one table.
_BOTH = {"mark": True}
_RELAY = RelayPayload(("S", "p1"), "v")
_PAYLOAD_POOL = [
    None, DEFAULT, "1", 1, True, 1.0, "v", ("S", "p1"), ("S", "p1"),
    _RELAY, _RELAY, RelayPayload(("S", "p1"), "v"), RelayPayload(("S", 1), True),
    [1, "1"], [True, 1.0], _BOTH, Unencodable(), Opaque("1"),
]
_TAG = {"tag": "byz"}
_FRAME = {"frame": BATCH, "messages": 2, "mark": True}
_META_POOL = [
    None, _TAG, _TAG, {"tag": "byz"}, {"tag": 1}, {"tag": "1"},
    _BOTH, {"mark": True}, {"mark": 1}, {"mark": 1.0}, {"mark": "1"},
    _FRAME, _FRAME, {"frame": BATCH, "messages": 2, "mark": 1},
    {"frame": BATCH, "messages": True, "mark": True}, {"frame": MARK},
    {"frame_round": 1}, {"instance": "1"}, {"instance": 1}, {"tag": Unencodable()},
]
_pooled_events = st.builds(
    TraceEvent,
    round_no=st.sampled_from([1, 2, True, "1"]),
    kind=st.sampled_from(list(EventKind)),
    source=st.sampled_from(["S", "p1", "1", 1, True, None, ("rack", 1)]),
    destination=st.sampled_from([None, "p1", "1", 1, 1.0, Unencodable()]),
    payload=st.sampled_from(_PAYLOAD_POOL),
    note=st.sampled_from(["", "1", "by ByzantineRelayInjector"]),
    meta=st.sampled_from(_META_POOL),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_pooled_events, max_size=40))
def test_whole_traces_match_the_reference(events):
    trace = EventTrace()
    for event in events:
        trace.record(event)
    assert trace.lines() == [reference.event_to_json(e) for e in events]
    assert trace.to_jsonl() == reference.trace_to_jsonl(trace)
    record = RunRecord(
        spec=DegradableSpec(m=1, u=2, n_nodes=5), nodes=tuple(node_names(5)),
        sender="S", sender_value="v", faulty=frozenset({"p1"}), trace=trace,
    )
    assert record.fingerprint() == reference.fingerprint(record)


# ----------------------------------------------------------------------
# Whole records: header, JSONL, fingerprint
# ----------------------------------------------------------------------
FAULTS = (("p1", "lie"), ("p2", "silent"))
INSTANCES = [
    Instance(m, u, n, "attack", faults)
    for m, u, n in ((1, 2, 5), (2, 2, 7))
    for faults in ((), FAULTS)
]


def _assert_record_matches(record):
    assert record.header() == reference.header_line(record)
    assert record.to_jsonl() == reference.record_to_jsonl(record)
    assert record.trace.to_jsonl() == reference.trace_to_jsonl(record.trace)
    assert record.fingerprint() == reference.fingerprint(record)
    reloaded = RunRecord.from_jsonl(record.to_jsonl())
    assert reloaded.fingerprint() == record.fingerprint()


def _instance_id(instance):
    return f"{instance.m}-{instance.u}-{instance.n_nodes}-{len(instance.faults)}faulty"


@pytest.mark.parametrize("instance", INSTANCES, ids=_instance_id)
def test_sync_records_match_the_reference(instance):
    spec, nodes = instance.spec(), instance.nodes()
    _, engine = execute_degradable_protocol(
        spec, nodes, "S", instance.sender_value, instance.behaviors()
    )
    record = record_sync_run(
        spec, nodes, "S", instance.sender_value, instance.behavior_faulty, engine
    )
    assert len(record.trace) > 0
    _assert_record_matches(record)


@pytest.mark.parametrize("instance", INSTANCES, ids=_instance_id)
@pytest.mark.parametrize("batching", [True, False], ids=["batched", "unbatched"])
def test_net_records_match_the_reference(instance, batching):
    spec, nodes = instance.spec(), instance.nodes()
    outcome = asyncio.run(
        run_agreement_async(
            spec, nodes, "S", instance.sender_value, behaviors=instance.behaviors(),
            transport=LocalBus(), round_timeout=0.2, batching=batching,
        )
    )
    record = record_net_outcome(
        spec, nodes, "S", instance.sender_value, instance.behavior_faulty, outcome,
        batched=batching,
    )
    assert len(record.trace) > 0
    _assert_record_matches(record)


def test_header_corners_match_the_reference():
    """Non-string node ids, an unsortable-looking faulty set, opaque meta."""
    spec = DegradableSpec(m=1, u=2, n_nodes=5)
    nodes = (0, 1, ("rack", 2), "p3", 4.5)
    trace = EventTrace(instance=("svc", 7))
    trace.record(TraceEvent(1, EventKind.SENT, 0, 1, DEFAULT, meta={"tag": "byz"}))
    for faulty, meta in (
        (frozenset(), {}),
        (frozenset({1, ("rack", 2), "p3", 4.5}), {"instances": [{"id": "a"}, {"id": ("b", 1)}]}),
        (frozenset({"p3", Unencodable()}), {"why": Unencodable()}),
    ):
        record = RunRecord(
            spec=spec, nodes=nodes, sender=0, sender_value=DEFAULT, faulty=faulty,
            trace=trace, mode="net", transport="mux+local", batched=True, tag="svc",
            meta=meta,
        )
        _assert_record_matches(record)


def test_an_empty_trace_is_the_header_alone():
    record = RunRecord(
        spec=DegradableSpec(m=1, u=2, n_nodes=5), nodes=tuple(node_names(5)), sender="S", sender_value="v",
        faulty=frozenset(), trace=EventTrace(),
    )
    assert record.to_jsonl() == record.header() == reference.record_to_jsonl(record)
    assert record.fingerprint() == reference.fingerprint(record)
