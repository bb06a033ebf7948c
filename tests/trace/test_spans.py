"""Span model: deterministic ids, ordinals, scopes, orphan events."""

import pytest

from repro.trace import Span, Tracer, span_key


class TestDeterministicIds:
    def test_same_seed_same_coordinates_same_id(self):
        a, b = Tracer(seed=42), Tracer(seed=42)
        sa = a.begin("send", "runner", round_no=2, source="S",
                     destination="p1")
        sb = b.begin("send", "runner", round_no=2, source="S",
                     destination="p1")
        assert sa.span_id == sb.span_id
        assert a.trace_id == b.trace_id

    def test_different_seed_different_id(self):
        a = Tracer(seed=1).begin("round", "runner", round_no=1)
        b = Tracer(seed=2).begin("round", "runner", round_no=1)
        assert a.span_id != b.span_id

    def test_ordinal_disambiguates_repeats_deterministically(self):
        # The k-th span on the same logical coordinates gets the k-th
        # ordinal — stable across tracers, unique within one.
        a, b = Tracer(seed=7), Tracer(seed=7)
        first_a = a.begin("link_heal", "supervision", source="S",
                          destination="p1")
        second_a = a.begin("link_heal", "supervision", source="S",
                           destination="p1")
        first_b = b.begin("link_heal", "supervision", source="S",
                          destination="p1")
        assert first_a.span_id != second_a.span_id
        assert first_a.span_id == first_b.span_id

    def test_ids_do_not_depend_on_wall_clock(self):
        ticks = iter([100.0, 200.0, 5.0, 9.0])
        warped = Tracer(seed=3, clock=lambda: next(ticks))
        plain = Tracer(seed=3)
        assert (
            warped.begin("round", "runner", round_no=1).span_id
            == plain.begin("round", "runner", round_no=1).span_id
        )

    def test_span_key_spells_none_as_dash(self):
        assert span_key("send", None, 2, "S", "p1", None) == "send|-|2|S|p1|-"

    def test_coordinates_are_stringified(self):
        span = Tracer().begin(
            "demux", "mux", instance=("shard", 7), round_no=1,
            source=0, destination=1,
        )
        assert span.instance == str(("shard", 7))
        assert span.source == "0" and span.destination == "1"


class TestLifecycle:
    def test_end_is_idempotent_and_sets_duration(self):
        tracer = Tracer(clock=lambda: 1.0)
        span = tracer.begin("round", "runner", round_no=1)
        tracer._clock = lambda: 3.5
        tracer.end(span, messages=4)
        first_end = span.end
        tracer.end(span)
        assert span.end == first_end
        assert span.duration == pytest.approx(2.5)
        assert span.attrs["messages"] == 4

    def test_open_span_has_zero_duration(self):
        span = Tracer().begin("round", "runner", round_no=1)
        assert span.duration == 0.0

    def test_instant_is_closed_immediately(self):
        span = Tracer().instant("fast_fail", "supervision", source="S",
                                destination="p1")
        assert span.end is not None

    def test_close_open_marks_abandoned(self):
        tracer = Tracer()
        open_span = tracer.begin("round", "runner", round_no=1)
        closed_span = tracer.end(tracer.begin("round", "runner", round_no=2))
        assert tracer.close_open() == 1
        assert open_span.end is not None
        assert open_span.attrs["abandoned"] is True
        assert "abandoned" not in closed_span.attrs
        assert tracer.close_open() == 0


class TestEventsAndScopes:
    def test_event_on_known_span_attaches(self):
        tracer = Tracer()
        span = tracer.begin("send", "runner", round_no=1, source="S",
                            destination="p1")
        tracer.event_on(span.span_id, "chaos_drop", charged="p1")
        assert span.events[0].name == "chaos_drop"
        assert tracer.orphan_events == 0

    @pytest.mark.parametrize("span_id", [None, "feedfacedeadbeef"])
    def test_event_on_unknown_span_synthesizes_orphan(self, span_id):
        tracer = Tracer()
        tracer.event_on(span_id, "chaos_drop", charged="p1")
        assert tracer.orphan_events == 1
        assert len(tracer.spans) == 1  # the synthesized instant
        assert tracer.spans[0].events[0].name == "chaos_drop"

    def test_scope_registry_parents_across_layers(self):
        tracer = Tracer()
        gate = tracer.begin("instance", "gateway", instance="i0001")
        tracer.set_scope("i0001", gate.span_id)
        assert tracer.scope_parent("i0001") == gate.span_id
        assert tracer.scope_span("i0001") is gate
        assert tracer.scope_parent("i9999") is None
        assert tracer.scope_span("i9999") is None

    def test_span_ids_sorted_and_introspection(self):
        tracer = Tracer(seed=5)
        tracer.end(tracer.begin("round", "runner", round_no=1))
        tracer.begin("round", "runner", round_no=2)
        assert tracer.span_ids() == sorted(tracer.span_ids())
        assert len(tracer) == 2
        assert len(tracer.finished) == 1
        assert tracer.durations_by_category().keys() == {"runner"}
        assert isinstance(tracer.get(tracer.span_ids()[0]), Span)
