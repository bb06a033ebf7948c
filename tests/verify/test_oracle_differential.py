"""Differential test: the one-pass oracle against the rescanning reference.

``tests/verify/reference_oracle.py`` holds ``verify_record`` as it was
while every check rescanned the whole event tuple.  The live oracle files
each event once; it must reach the same report on every record — tier,
checked receivers, decisions, and the violations in order with their
code, node, round and message — and refuse a multi-instance trace with
the same message.
"""

import asyncio
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.behavior import LieAboutSender
from repro.core.protocol import execute_degradable_protocol
from repro.core.spec import DegradableSpec
from repro.exceptions import VerificationError
from repro.explore import ExploreConfig, run_on_virtual_clock
from repro.net import LocalBus, run_agreement_async
from repro.serve import AgreementService, record_service_run
from repro.sim.faults import OmissionInjector
from repro.sim.trace import EventKind, EventTrace, TraceEvent
from repro.verify import record_net_outcome, record_sync_run, verify_record

from tests.conftest import node_names
from tests.explore import reference_explorer
from tests.explore.reference_explorer import reference_explore
from tests.verify import reference_oracle as reference
from tests.verify.test_mutations import MUTATED_RECORDS

SPEC = DegradableSpec(m=1, u=2, n_nodes=5)
NODES = tuple(node_names(5))


def verdict(verify, record):
    """Everything a report says, or the refusal it raised."""
    try:
        report = verify(record)
    except VerificationError as exc:
        return ("refused", str(exc))
    return (
        report.tier,
        report.checked,
        report.decisions,
        [(v.code, v.node, v.round_no, v.detail) for v in report.violations],
        report.render(),
    )


def assert_same_verdict(record):
    live = verdict(verify_record, record)
    assert live == verdict(reference.verify_record, record)
    return live


# ----------------------------------------------------------------------
# Every run of the benchmark's frontiers
# ----------------------------------------------------------------------
FRONTIERS = {
    "n5-clean": (ExploreConfig(), 2),
    "n5-supervised-faulty": (
        ExploreConfig(supervise=True, faults=(("p1", "two-faced"), ("p2", "lie"))),
        2,
    ),
    "n7-clean": (ExploreConfig(m=2, u=2, n_nodes=7), 1),
    "n5-unbatched": (ExploreConfig(batching=False), 1),
}


@pytest.mark.parametrize("name", list(FRONTIERS))
def test_every_frontier_run_gets_the_reference_verdict(name, monkeypatch):
    # The search that runs every schedule: the live one settles most of a
    # symmetric frontier without a record to judge.
    config, depth = FRONTIERS[name]
    records = []

    def recording(config, schedule=(), events=None):
        outcome = run_schedule(config, schedule, events=events)
        records.append(outcome.record)
        return outcome

    run_schedule = reference_explorer.run_schedule
    monkeypatch.setattr(reference_explorer, "run_schedule", recording)
    report = reference_explore(
        config, depth_bound=depth, budget=10**6, stop_at_first=False
    )
    assert report.frontier_exhausted and report.ok
    assert len(records) == report.executions == report.schedules
    for record in records:
        assert_same_verdict(record)


# ----------------------------------------------------------------------
# The mutation suite's records
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(MUTATED_RECORDS))
def test_every_mutated_record_gets_the_reference_verdict(name):
    live = assert_same_verdict(MUTATED_RECORDS[name](SPEC))
    assert live[3], "a mutated record must fail"


# ----------------------------------------------------------------------
# Shuffled, duplicated, dropped, re-tagged and re-rounded events
# ----------------------------------------------------------------------
def _sync_record(behaviors, faulty, extra_injectors=None):
    _, engine = execute_degradable_protocol(
        SPEC, NODES, "S", "alpha", behaviors, extra_injectors=extra_injectors
    )
    return record_sync_run(SPEC, NODES, "S", "alpha", frozenset(faulty), engine)


def _net_record():
    outcome = asyncio.run(
        run_agreement_async(
            SPEC, NODES, "S", "alpha", transport=LocalBus(), round_timeout=0.5
        )
    )
    return record_net_outcome(SPEC, NODES, "S", "alpha", frozenset(), outcome)


BASES = [
    _sync_record({}, ()),
    _sync_record({"p1": LieAboutSender("forged", "S")}, {"p1"}),
    _sync_record({}, {"p2"}, [OmissionInjector.from_sources({"p2"})]),
    _net_record(),
]

#: Paths no receiver may default: not rooted at the sender, a repeated or
#: unknown hop, too long, or not a path at all.
ILLEGAL_PATHS = [
    ("p1",),
    ("S", "S"),
    ("S", "p9"),
    ("S", "p1", "p2"),
    (),
    "S",
    ["S", "p1"],
    None,
]
TAGS = [None, {}, {"tag": "byz"}, {"tag": "other"}, {"tag": "byz", "note": 1}]


@st.composite
def doctored_records(draw):
    base = draw(st.sampled_from(BASES))
    events = list(base.trace.events)
    index = st.integers(0, 10**6)
    ops = st.sampled_from(["drop", "dup", "retag", "shift", "default"])
    for op in draw(st.lists(ops, max_size=12)):
        at = draw(index) % (len(events) + 1)
        if op == "default":
            events.insert(at, TraceEvent(
                draw(st.integers(0, 4)), EventKind.DEFAULTED, draw(st.sampled_from(NODES)),
                None, draw(st.sampled_from(ILLEGAL_PATHS)), "absent relay resolved to V_d",
            ))
        elif not events:
            continue
        elif op == "drop":
            del events[at % len(events)]
        elif op == "dup":
            events.insert(at, events[draw(index) % len(events)])
        elif op == "retag":
            at %= len(events)
            events[at] = replace(events[at], meta=draw(st.sampled_from(TAGS)))
        else:  # moved to a neighbouring round
            at %= len(events)
            shift = draw(st.sampled_from([-1, 1]))
            events[at] = replace(events[at], round_no=events[at].round_no + shift)
    if draw(st.booleans()):
        events = draw(st.permutations(events))
    trace = EventTrace()
    for event in events:
        trace.record(event)
    return replace(base, trace=trace)


@settings(max_examples=150, deadline=None)
@given(doctored_records())
def test_doctored_records_get_the_reference_verdict(record):
    assert_same_verdict(record)


def test_an_unhashable_node_id_names_no_receiver():
    """A hand-edited trace may carry a list where a node id belongs: the
    reference compared ids by equality and skipped it; so must the
    buckets."""
    base = BASES[2]
    trace = EventTrace()
    for event in base.trace.events:
        trace.record(event)
    trace.record(TraceEvent(2, EventKind.DELIVERED, "S", ["p3"], None, "", {"tag": "byz"}))
    trace.record(TraceEvent(2, EventKind.DEFAULTED, ["p3"], None, ("S",)))
    live = assert_same_verdict(replace(base, trace=trace))
    assert live[3] == [] and live[0] != "refused"


# ----------------------------------------------------------------------
# More than one instance in one trace
# ----------------------------------------------------------------------
def test_a_service_record_is_refused_with_the_reference_message():
    async def scenario():
        async with AgreementService(SPEC, NODES, round_timeout=1.0) as service:
            for sender, value in (("S", "attack"), ("p1", "retreat"), ("p3", "hold")):
                await service.submit_and_wait(sender, value)
            return record_service_run(service)

    live = assert_same_verdict(run_on_virtual_clock(scenario()))
    assert live[0] == "refused" and "3 protocol instances" in live[1]


def test_a_stray_instance_stamp_is_refused_like_the_reference():
    base = BASES[0]
    stamped, strayed = EventTrace(instance="only"), EventTrace(instance="only")
    for position, event in enumerate(base.trace.events):
        stamped.record(event)
        if position == 7:
            event = replace(event, meta={**(event.meta or {}), "instance": "stray"})
        strayed.record(event)
    assert assert_same_verdict(replace(base, trace=stamped))[0] != "refused"
    refused = assert_same_verdict(replace(base, trace=strayed))
    assert refused[0] == "refused" and "2 protocol instances" in refused[1]
