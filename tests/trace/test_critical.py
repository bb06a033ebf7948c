"""Critical-path reduction: dominant costs, degraded rounds, cross-link."""

from repro.trace import (
    Tracer,
    critical_paths,
    cross_link,
    read_spans,
    summary_lines,
    trace_report,
)


def traced_round(tracer, round_no, instance=None, *, ride_out=None,
                 heal=None, send=None, duration=1.0):
    """Synthesize one round's spans on a controllable virtual clock.

    *ride_out* = (peer, node): a collect window held open to the deadline.
    *heal* = (src, dst, seconds): a supervision retry-backoff burst.
    *send* = (src, dst, ok, seconds): one runner send, delivered or lost.
    """
    t0 = tracer.now()
    rnd = tracer.begin("round", "runner", instance=instance,
                       round_no=round_no)
    if heal is not None:
        src, dst, seconds = heal
        span = tracer.begin("link_heal", "supervision", round_no=round_no,
                            instance=instance, source=src, destination=dst)
        tracer.advance(seconds)
        tracer.end(span, healed=True)
    if send is not None:
        src, dst, ok, seconds = send
        span = tracer.begin("send", "runner", instance=instance,
                            round_no=round_no, source=src, destination=dst)
        tracer.advance(seconds)
        tracer.end(span, ok=ok)
    if ride_out is not None:
        peer, node = ride_out
        span = tracer.begin("collect", "runner", instance=instance,
                            round_no=round_no, destination=node)
        tracer.advance(duration - (tracer.now() - t0))
        tracer.event(span, "timeout", peer=peer, node=node)
        tracer.end(span, delivered=2, unresolved=1)
    tracer._clock_value = t0 + duration
    tracer.end(rnd)
    return rnd


class ClockedTracer(Tracer):
    """Tracer on a hand-cranked clock for synthetic timelines."""

    def __init__(self, seed=0):
        self._clock_value = 0.0
        super().__init__(seed=seed, clock=lambda: self._clock_value)

    def advance(self, seconds):
        self._clock_value += seconds


class FakeTimeout:
    """Duck-typed stand-in for a repro.verify TIMEOUT trace event."""

    kind = "TIMEOUT"

    def __init__(self, round_no, source, destination, instance=None):
        self.round_no = round_no
        self.source = source
        self.destination = destination
        self.meta = {} if instance is None else {"instance": instance}


class TestCriticalPaths:
    def test_clean_round_has_no_costs(self):
        tracer = ClockedTracer()
        traced_round(tracer, 1)
        (path,) = critical_paths(tracer.spans)
        assert path.costs == [] and path.dominant is None
        assert not path.degraded
        assert "clean" in summary_lines([path])[0]

    def test_ride_out_dominates_and_flags_degraded(self):
        tracer = ClockedTracer()
        traced_round(tracer, 2, ride_out=("p1", "p4"), duration=0.5)
        (path,) = critical_paths(tracer.spans)
        assert path.degraded
        assert path.dominant.kind == "timeout"
        assert path.timeout_links == ["p1->p4"]
        line = summary_lines([path])[0]
        assert "dominated by deadline ride-out waiting on p1->p4" in line
        assert "DEGRADED" in line

    def test_heal_burst_dominates_without_degrading(self):
        tracer = ClockedTracer()
        traced_round(tracer, 3, heal=("p2", "p5", 0.43),
                     send=("S", "p1", False, 0.02), duration=0.51)
        (path,) = critical_paths(tracer.spans)
        assert not path.degraded
        assert path.dominant.kind == "heal"
        line = summary_lines([path])[0]
        assert "dominated by retry backoff on link p2->p5" in line
        assert "DEGRADED" not in line

    def test_single_attempt_sends_are_not_charged(self):
        tracer = ClockedTracer()
        traced_round(tracer, 1, send=("S", "p1", True, 0.2))
        (path,) = critical_paths(tracer.spans)
        assert path.costs == []

    def test_failed_send_is_charged_to_its_link(self):
        tracer = ClockedTracer()
        traced_round(tracer, 1, send=("S", "p1", False, 0.2))
        (path,) = critical_paths(tracer.spans)
        assert [(c.kind, c.link) for c in path.costs] == [("send", "S->p1")]
        assert "failed send on link S->p1" in summary_lines([path])[0]

    def test_rounds_keyed_per_instance_in_run_order(self):
        tracer = ClockedTracer()
        traced_round(tracer, 1, instance="i0001")
        traced_round(tracer, 1, instance="i0002")
        traced_round(tracer, 2, instance="i0001")
        paths = critical_paths(tracer.spans)
        assert [(p.instance, p.round_no) for p in paths] == [
            ("i0001", 1), ("i0002", 1), ("i0001", 2),
        ]
        assert "[i0002]" in summary_lines(paths)[1]

    def test_round_duration_comes_from_round_span(self):
        tracer = ClockedTracer()
        traced_round(tracer, 1, ride_out=("p1", "p3"), duration=0.75)
        (path,) = critical_paths(tracer.spans)
        assert abs(path.duration - 0.75) < 1e-9


class TestCrossLink:
    def test_matching_stories_are_consistent(self):
        tracer = ClockedTracer()
        traced_round(tracer, 2, ride_out=("p1", "p4"), duration=0.5)
        paths = critical_paths(tracer.spans)
        records = [FakeTimeout(2, "p1", "p4")]
        assert cross_link(paths, records) == []

    def test_span_ride_out_without_record_is_flagged(self):
        tracer = ClockedTracer()
        traced_round(tracer, 2, ride_out=("p1", "p4"), duration=0.5)
        problems = cross_link(critical_paths(tracer.spans), [])
        assert problems and "no verify TIMEOUT record" in problems[0]

    def test_record_without_span_ride_out_is_flagged(self):
        tracer = ClockedTracer()
        traced_round(tracer, 1)
        problems = cross_link(
            critical_paths(tracer.spans), [FakeTimeout(1, "p2", "p3")]
        )
        assert problems and "no span ride-out" in problems[0]

    def test_instance_scoping_joins_through_event_meta(self):
        tracer = ClockedTracer()
        traced_round(tracer, 2, instance="i0001", ride_out=("p1", "p4"),
                     duration=0.5)
        paths = critical_paths(tracer.spans)
        assert cross_link(
            paths, [FakeTimeout(2, "p1", "p4", instance="i0001")]
        ) == []
        # Same coordinates, different instance: both sides flag.
        assert len(cross_link(
            paths, [FakeTimeout(2, "p1", "p4", instance="i0002")]
        )) == 2

    def test_non_timeout_records_ignored(self):
        class Delivered(FakeTimeout):
            kind = "DELIVERED"

        tracer = ClockedTracer()
        traced_round(tracer, 1)
        assert cross_link(
            critical_paths(tracer.spans), [Delivered(1, "p1", "p2")]
        ) == []


class TestTraceReport:
    """The whole ``repro trace`` report as one library call."""

    def test_consistent_run_exports_and_passes(self, tmp_path):
        tracer = ClockedTracer(seed=5)
        traced_round(tracer, 1)
        traced_round(tracer, 2, ride_out=("p1", "p4"), duration=0.5)
        spans_path = str(tmp_path / "spans.jsonl")
        lines, ok = trace_report(
            tracer, [FakeTimeout(2, "p1", "p4")], spans_path
        )
        assert ok
        assert lines[0].startswith(f"spans: {len(tracer.spans)} recorded")
        assert f"  span log written to {spans_path}" in lines
        assert not any("perfetto" in line for line in lines)
        assert any("round 2" in line and "DEGRADED" in line for line in lines)
        assert "  1 degraded round(s)" in "\n".join(lines)
        assert lines[-1].startswith("span/verify cross-check: consistent")
        header, spans = read_spans(spans_path)
        assert header["seed"] == 5 and len(spans) == len(tracer.spans)

    def test_disagreeing_views_fail_the_verdict(self):
        tracer = ClockedTracer()
        traced_round(tracer, 2, ride_out=("p1", "p4"), duration=0.5)
        lines, ok = trace_report(tracer, [])
        assert not ok
        assert "span/verify cross-check: MISMATCH" in lines
        assert lines[-1].startswith("  !! span ride-out")

    def test_open_spans_are_closed_at_export(self):
        tracer = ClockedTracer()
        tracer.begin("round", "runner", round_no=1)
        lines, _ = trace_report(tracer, [])
        assert "1 closed at export (cancelled mid-run)" in lines[0]
