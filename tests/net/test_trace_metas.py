"""What a trace line's meta costs: one dict per tag and frame shape in a run.

* in one run every ``sent``/``delivered``/``corrupted`` line of one tag
  holds the same ``{"tag": tag}`` object, and every ``coalesced`` /
  ``frame-sent`` / ``frame-recv`` line of one frame shape the same frame
  meta, so ``EventTrace.lines()`` writes each meta's text once per call;
* the tables live on the run (its ``EventTrace`` and runner), so two runs
  share no meta object, and a service's ``byz:<id>`` tags never pile up
  in a process-wide table;
* a meta is shared only on exactly typed values: ``mark=1`` and a tag of
  ``1`` get dicts of their own, never the ``mark=True`` one;
* an instance-stamped event (a served instance) keeps its own copy of the
  meta, so stamping never writes into a shared dict.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.core.protocol import ProtocolSession
from repro.core.spec import DegradableSpec
from repro.explore import ExploreConfig
from repro.explore.clock import run_on_virtual_clock
from repro.explore.explorer import run_schedule
from repro.net.runner import AsyncRoundRunner
from repro.net.transport import LocalBus
from repro.serve import AgreementService
from repro.sim.messages import Message
from repro.sim.trace import EventKind, EventTrace

from tests.conftest import node_names
from tests.sim import reference_trace as reference

SHARED_KINDS = {
    EventKind.SENT, EventKind.DELIVERED, EventKind.CORRUPTED,
    EventKind.COALESCED, EventKind.FRAME_SENT, EventKind.FRAME_RECV,
}
CONFIGS = [
    (ExploreConfig(sender_value="alpha"), (2, 0, 1)),
    (
        ExploreConfig(
            sender_value="beta", supervise=True,
            faults=(("p1", "two-faced"), ("p2", "lie")),
        ),
        (0, 2),
    ),
    (ExploreConfig(m=2, u=2, n_nodes=7, sender_value="gamma"), (1,)),
]


def _shape(meta):
    """A meta's content with each value's exact type: ``1 != True`` here."""
    return tuple((key, type(value), value) for key, value in meta.items())


def _metas_by_shape(trace):
    groups = {}
    for event in trace.events:
        if event.kind in SHARED_KINDS and event.meta is not None:
            groups.setdefault(_shape(event.meta), set()).add(id(event.meta))
    return groups


@pytest.mark.parametrize("config, schedule", CONFIGS, ids=["n5", "n5-faulty", "n7"])
def test_one_meta_object_per_tag_and_frame_shape_in_a_run(config, schedule):
    trace = run_schedule(config, schedule).record.trace
    groups = _metas_by_shape(trace)
    shapes = {shape[0][0] for shape in groups}
    assert {"tag", "frame", "messages"} <= shapes
    assert all(len(ids) == 1 for ids in groups.values()), groups
    # Every line of one tag, whatever its kind: one object.
    tags = {id(e.meta) for e in trace.events if e.meta and "tag" in e.meta}
    assert len(tags) == 1
    assert trace.lines() == [reference.event_to_json(e) for e in trace.events]


def test_two_runs_share_no_meta_object():
    config, schedule = CONFIGS[0]
    first = run_schedule(config, schedule).record.trace
    second = run_schedule(config, schedule).record.trace
    assert first.lines() == second.lines()
    assert _metas_by_shape(first).keys() == _metas_by_shape(second).keys()
    ids = lambda trace: {id(e.meta) for e in trace.events if e.meta is not None}
    assert ids(first) and not ids(first) & ids(second)


class _IntMarkBus(LocalBus):
    """Hands ``S -> p1``'s BATCH frames over with ``mark=1`` for ``True``."""

    async def send(self, frame) -> int:
        if (frame.source, frame.destination) == ("S", "p1") and frame.mark is True:
            frame = replace(frame, mark=1)
        return await super().send(frame)


def test_mark_1_is_not_folded_into_the_mark_true_meta():
    spec = DegradableSpec(m=1, u=2, n_nodes=5)
    nodes = node_names(5)
    runner = AsyncRoundRunner(
        ProtocolSession.byz(spec, nodes, "S", "attack"), transport=_IntMarkBus()
    )
    asyncio.run(runner.run())
    events = runner.trace.events
    received = [e for e in events if e.kind is EventKind.FRAME_RECV]
    odd = [e for e in received if (e.source, e.destination) == ("S", "p1")]
    plain = [e for e in received if e not in odd]
    assert odd and plain
    assert all(type(e.meta["mark"]) is int for e in odd)
    assert all(e.meta["mark"] is True for e in plain)
    true_ids = {id(e.meta) for e in events if e.meta and e.meta.get("mark") is True}
    assert not {id(e.meta) for e in odd} & true_ids
    lines = runner.trace.lines()
    assert lines == [reference.event_to_json(e) for e in events]
    assert sum('["mark",1]' in line for line in lines) == len(odd)


def test_a_tag_that_is_not_exactly_a_str_gets_a_fresh_dict():
    trace = EventTrace()
    for tag in ("byz", "byz", 1, 1, True):
        trace.record_message(1, EventKind.SENT, Message("S", "p1", "v", 1, tag))
    byz, byz_again, one, one_again, true = [e.meta for e in trace.events]
    assert byz is byz_again
    assert one is not one_again and one is not true
    assert type(one["tag"]) is int and true["tag"] is True
    assert trace.lines() == [reference.event_to_json(e) for e in trace.events]


def test_instance_stamped_events_keep_their_own_copies():
    spec = DegradableSpec(m=1, u=2, n_nodes=5)
    nodes = node_names(5)

    async def serve():
        async with AgreementService(spec, nodes, round_timeout=0.5) as service:
            ids = [service.submit("S", value) for value in ("a", "b", "a")]
            for iid in ids:
                await service.decision(iid)
            return service

    service = run_on_virtual_clock(serve())
    metas = []
    for outcome in service.outcomes.values():
        for event in outcome.trace.events:
            assert event.meta["instance"] == outcome.instance_id
            metas.append(event.meta)
    assert len(metas) > 3 * 90
    # A stamp written into a shared dict would leave one object behind
    # many lines (and one instance id on them all).
    assert len({id(meta) for meta in metas}) == len(metas)
    merged = service.service_trace()
    assert merged.lines() == [reference.event_to_json(e) for e in merged.events]
