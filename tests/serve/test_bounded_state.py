"""A service holds bounded state: a window of decided instances, not its history.

* :class:`TestFlatService` — 5 000 instances on the virtual clock: every
  container on the service, the mux and the aggregate recorder has the
  same size after 2 500 and 5 000, and a scrape runs the same number of
  lines of ``repro`` code at both (the work is counted, not timed).
* :class:`TestRetainedBytes` — a decided instance, held by its client,
  retains at most 3.5 KB with traces off.
* :class:`TestSingleUseIds` — auto ids never collide with a held id; an
  evicted id answers :class:`UnknownInstanceError` and may be submitted
  again; and no straggler of an evicted instance is ever filed into the
  later instance that reuses its id.
* :class:`TestFailedInstance` — a failed instance takes no window slot:
  after one, the store, the fingerprint and the counts agree, inside the
  window and past it.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import sys
import tracemalloc

import pytest

import repro
from repro.core.behavior import FunctionBehavior
from repro.core.scenario import build_behavior
from repro.core.spec import DegradableSpec
from repro.exceptions import ConfigurationError, UnknownInstanceError
from repro.explore import run_on_virtual_clock
from repro.net.chaos.policy import ChaosPolicy
from repro.net.codec import MARK, Frame
from repro.net.transport import LocalBus
from repro.obs.http import ObsServer
from repro.obs.prom import metrics_registry
from repro.serve import (
    AgreementService,
    InstanceMux,
    gateway,
    record_service_run,
)
from repro.serve.gateway import OUTCOME_WINDOW

SPEC = DegradableSpec(m=1, u=2, n_nodes=5)
NODES = ("S", "p1", "p2", "p3", "p4")
SRC = os.path.dirname(repro.__file__)


def sizes(obj) -> dict:
    """Length of every container attribute of *obj* (``__dict__`` or slots)."""
    names = getattr(type(obj), "__slots__", None) or vars(obj)
    out = {}
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, (dict, list, set, tuple)) or hasattr(value, "maxlen"):
            out[name] = len(value)
    return out


def lines_run(fn) -> int:
    """How many lines of ``repro`` code one call of *fn* executes."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(SRC):
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


class TestFlatService:
    def test_state_and_scrape_work_are_the_same_at_2500_and_5000_instances(self):
        """Past the window the service, the mux and the recorder stop
        growing, and a scrape walks the window, not the history."""

        async def serve(service, count):
            for _ in range(count // 50):
                ids = [service.submit("S", "v") for _ in range(50)]
                for iid in ids:
                    assert (await service.decision(iid)).ok

        def state(service):
            aggregate = service.aggregate_metrics
            health = ObsServer.for_service(service, 0).health
            scrape = lines_run(
                lambda: (
                    metrics_registry(aggregate, service=service).render(),
                    health(),
                )
            )
            return {
                "service": sizes(service),
                "mux": sizes(service.mux),
                "recorder": sizes(aggregate),
                "folded": sizes(aggregate.folded),
                "scrape_lines": scrape,
            }

        async def scenario():
            async with AgreementService(SPEC, NODES, record_trace=False) as service:
                await serve(service, 2500)
                at_2500 = state(service)
                await serve(service, 2500)
                return at_2500, state(service), service

        at_2500, at_5000, service = run_on_virtual_clock(scenario())
        assert at_2500 == at_5000
        assert at_5000["service"]["outcomes"] == OUTCOME_WINDOW
        assert at_5000["recorder"]["window"] == OUTCOME_WINDOW
        aggregate = service.aggregate_metrics
        assert service.decided == aggregate.instances_folded == 5000
        assert aggregate.total_frames == 5000 * 16
        assert aggregate.total_rounds == 5000 * 3


class TestRetainedBytes:
    def test_a_decided_instance_held_by_its_client_retains_at_most_3_5_kb(self):
        """Traces off, the client holding every outcome (as ``perf/``'s
        load generator does): what a decided instance leaves behind is its
        compact records.  The real clock, so latency samples are real
        floats."""
        rng = random.Random(7)
        plan = [
            (
                NODES[i % 5],
                rng.choice(("attack", "retreat", "hold")),
                {NODES[(i + 2) % 5]: build_behavior("lie", NODES)}
                if i % 4 == 0 else None,
            )
            for i in range(240)
        ]
        count = 640

        async def scenario():
            held = []
            async with AgreementService(SPEC, NODES, record_trace=False) as service:

                async def batch(start):
                    ids = [
                        service.submit(sender, value, behaviors=behaviors)
                        for sender, value, behaviors in (
                            plan[i % len(plan)] for i in range(start, start + 16)
                        )
                    ]
                    for iid in ids:
                        held.append(await service.decision(iid))

                for start in range(0, len(plan), 16):
                    await batch(start)
                gc.collect()
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    for start in range(len(plan), len(plan) + count, 16):
                        await batch(start)
                    gc.collect()
                    after = tracemalloc.get_traced_memory()[0]
                finally:
                    tracemalloc.stop()
            assert all(outcome.ok for outcome in held)
            return (after - before) / count

        per_instance = asyncio.run(scenario())
        assert per_instance <= 3.5 * 1024, f"{per_instance:.0f} B per instance"


class EchoBus(LocalBus):
    """A LocalBus that delivers every frame, then a copy of it 50–150 ms
    later: a straggler that outlives the instance that sent it."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.rng = random.Random(seed)
        self.echoes = 0

    async def send(self, frame: Frame) -> int:
        nbytes = await super().send(frame)
        asyncio.get_running_loop().call_later(
            self.rng.uniform(0.05, 0.15), self._echo, frame
        )
        return nbytes

    def _echo(self, frame: Frame) -> None:
        self.echoes += 1
        self._sink(frame.destination, frame)


class TestSingleUseIds:
    def test_an_auto_id_never_collides_with_a_client_id(self):
        async def scenario():
            async with AgreementService(SPEC, NODES, record_trace=False) as service:
                chosen = service.submit("S", "v", instance_id="i0001")
                auto = service.submit("S", "v")
                decided = [await service.decision(i) for i in (chosen, auto)]
            return chosen, auto, decided

        chosen, auto, decided = run_on_virtual_clock(scenario())
        assert (chosen, auto) == ("i0001", "i0002")
        assert all(outcome.ok for outcome in decided)

    def test_auto_ids_of_a_run_without_client_ids_are_unchanged(self):
        async def scenario():
            async with AgreementService(SPEC, NODES, record_trace=False) as service:
                ids = [service.submit("S", "v") for _ in range(3)]
                for iid in ids:
                    await service.decision(iid)
            return ids

        assert run_on_virtual_clock(scenario()) == ["i0000", "i0001", "i0002"]

    def test_an_evicted_id_is_unknown_and_may_be_submitted_again(
        self, monkeypatch
    ):
        monkeypatch.setattr(gateway, "OUTCOME_WINDOW", 4)

        async def scenario():
            async with AgreementService(SPEC, NODES, record_trace=False) as service:
                ids = [service.submit("S", "v") for _ in range(6)]
                await asyncio.gather(*map(service.decision, ids))
                held = list(service.outcomes)
                with pytest.raises(UnknownInstanceError):
                    await service.decision(ids[0])
                with pytest.raises(UnknownInstanceError):
                    await service.decision("never-submitted")
                with pytest.raises(ConfigurationError, match="single-use"):
                    service.submit("S", "v", instance_id=ids[-1])
                again = await service.submit_and_wait(
                    "p1", "w", instance_id=ids[0]
                )
            return ids, held, again, service

        ids, held, again, service = run_on_virtual_clock(scenario())
        assert held == ids[2:]
        assert again.instance_id == ids[0] and again.ok
        assert set(again.decisions.values()) == {"w"}
        assert service.decided == 7 and service.evicted == 3

    def test_a_frame_stamped_before_its_channel_opened_is_stray(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            mux = InstanceMux(LocalBus(), NODES)
            await mux.start()
            try:
                first = mux.channel("a", opened_at=loop.time())
                straggler = Frame(
                    kind=MARK, round_no=1, source="S", destination="p1",
                    instance="a", sent_at=loop.time(),
                )
                await first.close()
                await asyncio.sleep(0.01)
                again = mux.channel("a", opened_at=loop.time())
                await mux.transport.send(straggler)
                fresh = Frame(
                    kind=MARK, round_no=1, source="S", destination="p1",
                    instance="a", sent_at=loop.time(),
                )
                await mux.transport.send(fresh)
                got = await again.recv("p1")
                return got, again.recv_nowait("p1"), mux.metrics.stray_frames
            finally:
                await mux.stop()

        got, nothing, strays = run_on_virtual_clock(scenario())
        assert got.sent_at > 0.0 and nothing is None and strays == 1

    def test_no_straggler_reaches_a_later_instance_under_the_same_id(
        self, monkeypatch
    ):
        """Chaos delays every frame 1–2 ms, so an instance takes tens of
        virtual milliseconds; the bus echoes every frame 50–150 ms after
        it was sent, well after its instance decided.  With a window of
        two, the client reuses each id four instances later, while echoes
        of the id's earlier instance are still landing: every echo is
        counted stray, none is filed, and every instance decides its own
        value."""
        monkeypatch.setattr(gateway, "OUTCOME_WINDOW", 2)
        pool = ("a", "b", "c", "d")

        async def scenario():
            bus = EchoBus(seed=3)
            service = AgreementService(
                SPEC, NODES, transport=bus,
                chaos=ChaosPolicy(
                    latency_probability=1.0, latency=(0.001, 0.002), seed=3
                ),
                max_inflight=1, round_timeout=1.0,
            )
            decided = []
            async with service:
                for n in range(40):
                    decided.append(await service.submit_and_wait(
                        NODES[n % 5], f"v{n}", instance_id=pool[n % 4]
                    ))
                await asyncio.sleep(0.2)  # every echo lands before close
            return bus, service, decided

        bus, service, decided = run_on_virtual_clock(scenario())
        assert bus.echoes > 0
        assert service.aggregate_metrics.stray_frames == bus.echoes
        for n, outcome in enumerate(decided):
            assert outcome.ok and outcome.tier == "byzantine"
            assert set(outcome.decisions.values()) == {f"v{n}"}
            assert outcome.metrics.total_late_frames == 0


class TestFailedInstance:
    def test_the_store_the_fingerprint_and_the_counts_agree(self, monkeypatch):
        """Window 4: one instance decides, one fails (its behaviour
        raises), three decide — inside the window, all four decided are
        held whole and listed — then four more decide, past it.  The
        failed one is held: ``decision`` re-raises its error at both."""
        monkeypatch.setattr(gateway, "OUTCOME_WINDOW", 4)

        def boom(path, source, destination, honest_value):
            raise RuntimeError("behaviour raised")

        def view(service):
            aggregate = service.aggregate_metrics
            counters = aggregate.counters()
            assert service.decided == aggregate.instances_folded
            assert service.decided == service.tally().decided
            assert service.evicted + len(service.outcomes) == service.decided
            record = record_service_run(service)
            listed = [entry["id"] for entry in record.meta["instances"]]
            assert listed == list(service.outcomes)
            assert record.meta.get("evicted", 0) == service.evicted
            inst = sorted(
                {key.split(".")[1] for key in counters if key.startswith("inst.")}
            )
            folded = counters.get("folded.instances")
            if folded is None:
                assert inst == sorted(service.outcomes)
            else:
                assert inst == [] and folded == service.decided
            return {
                "held": list(service.outcomes), "inst": inst,
                "folded": folded, "evicted": service.evicted,
            }

        async def scenario():
            async with AgreementService(SPEC, NODES, record_trace=False) as service:
                await service.submit_and_wait("S", "v")
                failed = service.submit(
                    "S", "v", behaviors={"p1": FunctionBehavior(boom)}
                )
                with pytest.raises(RuntimeError, match="behaviour raised"):
                    await service.decision(failed)
                for _ in range(3):
                    assert (await service.submit_and_wait("S", "v")).ok
                inside = view(service)
                for _ in range(4):
                    assert (await service.submit_and_wait("S", "v")).ok
                past = view(service)
                with pytest.raises(RuntimeError, match="behaviour raised"):
                    await service.decision(failed)
                with pytest.raises(UnknownInstanceError):
                    await service.decision("i0000")
            return failed, inside, past

        failed, inside, past = run_on_virtual_clock(scenario())
        assert failed == "i0001"
        decided = ["i0000", "i0002", "i0003", "i0004"]
        assert inside == {
            "held": decided, "inst": decided, "folded": None, "evicted": 0,
        }
        assert past == {
            "held": ["i0005", "i0006", "i0007", "i0008"], "inst": [],
            "folded": 8, "evicted": 4,
        }
