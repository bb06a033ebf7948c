"""Unit tests for execution traces and local views."""

import dataclasses
import inspect
from typing import Any, Dict, Optional

import pytest

from repro.core.values import DEFAULT
from repro.sim.messages import Message, RelayPayload
from repro.sim.trace import EventKind, EventTrace, TraceEvent

from tests.sim import reference_trace as reference


def delivered(round_no, src, dst, payload):
    return TraceEvent(
        round_no=round_no,
        kind=EventKind.DELIVERED,
        source=src,
        destination=dst,
        payload=payload,
    )


class TestRecording:
    def test_record_and_len(self):
        trace = EventTrace()
        trace.record(delivered(1, "a", "b", "x"))
        assert len(trace) == 1
        assert trace.events[0].payload == "x"

    def test_record_message_helper(self):
        trace = EventTrace()
        msg = Message(source="a", destination="b", payload="x")
        trace.record_message(2, EventKind.SENT, msg, note="test")
        event = trace.events[0]
        assert event.kind is EventKind.SENT
        assert event.round_no == 2
        assert event.note == "test"

    def test_instance_stamp_keeps_meta_order_and_leaves_the_original(self):
        trace = EventTrace(instance="op3")
        tagged = Message(source="a", destination="b", payload="x", tag="byz")
        trace.record_message(1, EventKind.SENT, tagged)
        trace.record(delivered(1, "a", "b", "x"))
        own = TraceEvent(1, EventKind.DECIDED, "b", None, "x", meta={"instance": "mine"})
        trace.record(own)
        framed_meta = {"frame": "batch", "messages": 2}
        framed = TraceEvent(1, EventKind.FRAME_SENT, "a", "b", None, "n", framed_meta)
        trace.record(framed)
        metas = [e.meta for e in trace.events]
        assert metas == [
            {"tag": "byz", "instance": "op3"},
            {"instance": "op3"},
            {"instance": "mine"},
            {"frame": "batch", "messages": 2, "instance": "op3"},
        ]
        assert [list(m) for m in metas][3] == ["frame", "messages", "instance"]
        assert trace.events[2] is own
        assert framed_meta == {"frame": "batch", "messages": 2}
        assert trace.events[3] == dataclasses.replace(framed, meta=metas[3])


@dataclasses.dataclass(frozen=True)
class PlainEvent:
    """TraceEvent as the generated frozen dataclass would build it."""

    round_no: int
    kind: EventKind
    source: Any
    destination: Any
    payload: Any
    note: str = ""
    meta: Optional[Dict[str, Any]] = dataclasses.field(default=None)


SAMPLES = [
    (1, EventKind.SENT, "S", "p1", RelayPayload(("S",), "v")),
    (2, EventKind.DEFAULTED, "p2", None, ("S", "p1"), "absent relay resolved to V_d"),
    (3, EventKind.COALESCED, "p1", "p3", None, "", {"messages": 3, "mark": True}),
    (4, EventKind.DECIDED, "p4", None, DEFAULT, "", None),
]


class TestConstruction:
    """The hand-written ``__init__`` builds what the generated one would."""

    def test_parameters_are_the_fields_in_order_with_their_defaults(self):
        params = list(inspect.signature(TraceEvent.__init__).parameters.values())[1:]
        fields = dataclasses.fields(TraceEvent)
        assert [p.name for p in params] == [f.name for f in fields]
        assert [p.default for p in params] == [
            inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
            for f in fields
        ]
        assert [p.kind for p in params] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * 7

    @pytest.mark.parametrize("args", SAMPLES, ids=lambda a: a[1].value)
    def test_same_object_as_the_plain_frozen_twin(self, args):
        ours, twin = TraceEvent(*args), PlainEvent(*args)
        assert vars(ours) == vars(twin) and list(vars(ours)) == list(vars(twin))
        assert repr(ours) == repr(twin).replace("PlainEvent", "TraceEvent", 1)
        names = [f.name for f in dataclasses.fields(TraceEvent)]
        assert TraceEvent(**dict(zip(names, args))) == ours
        assert ours == TraceEvent(*args) and ours != twin
        assert ours != TraceEvent(*args[:4], "other")
        if ours.meta is None:
            assert hash(ours) == hash(twin) == hash(TraceEvent(*args))
        else:
            with pytest.raises(TypeError):
                hash(ours)
        for change in ({"note": "x"}, {"meta": {"tag": "t"}}, {"round_no": 9}):
            moved = dataclasses.replace(ours, **change)
            assert type(moved) is TraceEvent
            assert vars(moved) == vars(dataclasses.replace(twin, **change))

    def test_frozen(self):
        event = TraceEvent(*SAMPLES[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.note = "x"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del event.payload
        assert event.note == ""

    def test_missing_and_unknown_arguments_are_refused(self):
        with pytest.raises(TypeError):
            TraceEvent(1, EventKind.SENT, "S", "p1")
        with pytest.raises(TypeError):
            TraceEvent(1, EventKind.SENT, "S", "p1", "x", tag="byz")


class TestQueries:
    def build(self):
        trace = EventTrace()
        trace.record(delivered(1, "a", "b", "x"))
        trace.record(delivered(1, "c", "b", "y"))
        trace.record(delivered(2, "a", "c", "z"))
        trace.record(
            TraceEvent(2, EventKind.DROPPED, "a", "b", "lost")
        )
        return trace

    def test_deliveries_to(self):
        trace = self.build()
        assert [e.payload for e in trace.deliveries_to("b")] == ["x", "y"]

    def test_local_view(self):
        trace = self.build()
        assert trace.local_view("b") == ((1, "a", "x"), (1, "c", "y"))
        assert trace.local_view("c") == ((2, "a", "z"),)

    def test_local_view_excludes_drops(self):
        trace = self.build()
        assert all(p != "lost" for _, _, p in trace.local_view("b"))

    def test_count(self):
        trace = self.build()
        assert trace.count(EventKind.DELIVERED) == 3
        assert trace.count(EventKind.DROPPED) == 1

    def test_messages_per_round(self):
        trace = self.build()
        assert trace.messages_per_round() == {1: 2, 2: 1}

    def test_filter(self):
        trace = self.build()
        from_a = trace.filter(lambda e: e.source == "a")
        assert len(from_a) == 3


class TestExport:
    def test_jsonl_is_canonical_and_lossless(self):
        import json

        trace = EventTrace()
        trace.record(delivered(1, "a", "b", "x"))
        trace.record(delivered(2, "b", "a", "y"))
        lines = trace.to_jsonl().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {
            "round": 1,
            "kind": "delivered",
            "source": "a",
            "destination": "b",
            "payload": "x",
            "note": "",
            "meta": None,
        }
        assert EventTrace.from_jsonl(trace.to_jsonl()).events == trace.events

    def test_round_trip_preserves_value_domain(self):
        from repro.core.values import DEFAULT
        from repro.sim.messages import RelayPayload

        trace = EventTrace()
        trace.record(
            delivered(2, "a", "b", RelayPayload(path=("s", "a"), value=DEFAULT))
        )
        trace.record(
            TraceEvent(
                round_no=2,
                kind=EventKind.DEFAULTED,
                source="b",
                destination=None,
                payload=("s", "c"),
                note="absent relay resolved to V_d",
            )
        )
        back = EventTrace.from_jsonl(trace.to_jsonl())
        assert back.events == trace.events
        assert back.events[0].payload.value is DEFAULT
        assert isinstance(back.events[1].payload, tuple)

    def test_shared_payload_objects_write_the_reference_lines(self):
        """One payload object behind many lines is written once per
        ``lines()`` call, and the lines still equal the reference writer's."""

        class Unencodable:
            def __repr__(self):
                return "<unencodable>"

        relay = RelayPayload(("S", "p1"), DEFAULT)
        listed = ["a", ("b", 2), relay]
        opaque = [1, Unencodable()]
        trace = EventTrace()
        for round_no, payload in enumerate((relay, listed, opaque, relay, None)):
            message = Message("S", "p1", payload, tag="byz")
            trace.record_message(round_no, EventKind.SENT, message)
            trace.record_message(round_no + 1, EventKind.DELIVERED, message)
            trace.record(TraceEvent(round_no, EventKind.CORRUPTED, "p2", "p3", payload))
        trace.record(TraceEvent(1, EventKind.DEFAULTED, "p3", None, relay.path))

        def reference_lines():
            return [reference.event_to_json(event) for event in trace.events]

        assert trace.lines() == reference_lines()
        # The text table lives for one call: a list changed in between
        # is written afresh.
        listed.append(("c", DEFAULT))
        opaque.pop()
        assert trace.lines() == reference_lines()
        assert '"c"' in trace.lines()[3]
        assert trace.to_jsonl() == reference.trace_to_jsonl(trace)

    def test_from_jsonl_rejects_garbage(self):
        import pytest

        from repro.exceptions import TraceFormatError

        with pytest.raises(TraceFormatError):
            EventTrace.from_jsonl("not json")
        with pytest.raises(TraceFormatError):
            EventTrace.from_jsonl('{"round": 1, "kind": "no-such-kind"}')
        with pytest.raises(TraceFormatError):
            EventTrace.from_jsonl('{"kind": "sent"}')

    def test_empty_trace(self):
        trace = EventTrace()
        assert trace.to_jsonl() == ""
        assert len(EventTrace.from_jsonl("")) == 0


class TestViewComparison:
    def test_identical_views_compare_equal(self):
        t1, t2 = EventTrace(), EventTrace()
        for t in (t1, t2):
            t.record(delivered(1, "s", "b", "v"))
            t.record(delivered(2, "a", "b", "w"))
        assert t1.local_view("b") == t2.local_view("b")

    def test_different_payload_distinguishes(self):
        t1, t2 = EventTrace(), EventTrace()
        t1.record(delivered(1, "s", "b", "v"))
        t2.record(delivered(1, "s", "b", "w"))
        assert t1.local_view("b") != t2.local_view("b")
