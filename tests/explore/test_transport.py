"""ExploredTransport in isolation: menus, tracking, and fault charging.

Driven directly (no runner) on the virtual clock so each decision-point
behaviour — menu composition per frame kind, drop/stall/defer timing,
positive miss detection — is pinned where it lives, without the
protocol's own absences muddying attribution.
"""

from __future__ import annotations

import asyncio
import dataclasses
import inspect
from typing import Hashable, Tuple

import pytest

from repro.explore import (
    DEFER,
    DELIVER,
    DROP,
    STALL,
    DecisionPoint,
    ExploreScheduleError,
    ExploredTransport,
    ScheduleController,
    run_on_virtual_clock,
)
from repro.net.codec import BATCH, DATA, MARK, Frame
from repro.sim.messages import Message, RelayPayload


def data_frame(round_no=1, source="S", destination="p1", instance=None):
    return Frame(
        kind=DATA,
        round_no=round_no,
        source=source,
        destination=destination,
        message=Message(
            source=source,
            destination=destination,
            payload=RelayPayload(path=(source,), value="alpha"),
            round_sent=round_no,
        ),
        instance=instance,
    )


def make(schedule=(), timeout=1.0):
    controller = ScheduleController(schedule)
    transport = ExploredTransport(controller, round_timeout=timeout)
    return controller, transport


def drive(transport, coro):
    async def _run():
        await transport.open(["S", "p1", "p2"])
        try:
            return await coro()
        finally:
            await transport.close()

    return run_on_virtual_clock(_run())


class TestMenus:
    @pytest.mark.parametrize(
        "kind,expected_menu",
        [
            (DATA, (DELIVER, DROP, STALL, DEFER)),
            (BATCH, (DELIVER, DROP, STALL)),
            (MARK, (DELIVER, DROP)),
        ],
    )
    def test_menu_per_kind(self, kind, expected_menu):
        controller, transport = make()
        menu, pruned = transport._menu(
            Frame(kind=kind, round_no=1, source="S", destination="p1")
        )
        assert menu == expected_menu
        # Every kind accounts for the same action universe: offered
        # options plus pruned commuting ones always total four.
        assert len(menu) + pruned == 4

    def test_controller_counts_offered_and_pruned(self):
        controller, transport = make()

        async def scenario():
            await transport.send(data_frame())
            return await transport.recv("p1")

        drive(transport, scenario)
        assert controller.offered == 4
        assert controller.pruned == 0
        assert controller.choices == (0,)
        assert controller.deviations == 0


class TestScheduleValidation:
    def test_choice_past_menu_width_raises(self):
        controller, transport = make(schedule=(9,))

        async def scenario():
            await transport.send(data_frame())

        with pytest.raises(ExploreScheduleError, match="offers 4 options"):
            drive(transport, scenario)

    def test_negative_choice_rejected_eagerly(self):
        with pytest.raises(ExploreScheduleError):
            ScheduleController((-1,))

    def test_trail_records_the_decision(self):
        controller, transport = make(schedule=(1,))

        async def scenario():
            await transport.send(data_frame())

        drive(transport, scenario)
        (point,) = controller.trail
        assert point.action == DROP
        assert (point.source, point.destination) == ("S", "p1")
        assert "drop" in point.label


@dataclasses.dataclass(frozen=True)
class PlainPoint:
    """DecisionPoint as the generated frozen dataclass would build it."""

    index: int
    round_no: int
    kind: str
    source: Hashable
    destination: Hashable
    menu: Tuple[str, ...]
    choice: int


class TestDecisionPointConstruction:
    """The hand-written ``__init__`` builds what the generated one would."""

    ARGS = (3, 2, BATCH, "S", "p1", (DELIVER, DROP, STALL), 2)

    def test_parameters_are_the_fields_in_order(self):
        params = list(inspect.signature(DecisionPoint.__init__).parameters.values())[1:]
        fields = dataclasses.fields(DecisionPoint)
        assert [p.name for p in params] == [f.name for f in fields]
        assert all(f.default is dataclasses.MISSING for f in fields)
        assert all(p.default is inspect.Parameter.empty for p in params)
        assert [p.kind for p in params] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * 7

    def test_same_object_as_the_plain_frozen_twin(self):
        ours, twin = DecisionPoint(*self.ARGS), PlainPoint(*self.ARGS)
        assert vars(ours) == vars(twin) and list(vars(ours)) == list(vars(twin))
        assert repr(ours) == repr(twin).replace("PlainPoint", "DecisionPoint", 1)
        names = [f.name for f in dataclasses.fields(DecisionPoint)]
        assert DecisionPoint(**dict(zip(names, self.ARGS))) == ours
        assert ours == DecisionPoint(*self.ARGS) and ours != twin
        assert hash(ours) == hash(twin)
        moved = dataclasses.replace(ours, choice=1)
        assert type(moved) is DecisionPoint and moved.action == DROP
        assert vars(moved) == vars(dataclasses.replace(twin, choice=1))
        assert ours.action == STALL and ours.label.startswith("#3 r2 batch S->p1: stall")

    def test_frozen(self):
        point = DecisionPoint(*self.ARGS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            point.choice = 0
        with pytest.raises(TypeError):
            DecisionPoint(*self.ARGS[:6])


class TestActions:
    def test_default_delivers_immediately(self):
        controller, transport = make()

        async def scenario():
            await transport.send(data_frame())
            frame = await transport.recv("p1")
            return frame

        frame = drive(transport, scenario)
        assert frame.message.payload.value == "alpha"
        assert transport.afflicted == set()

    def test_drop_charges_source_when_next_round_opens(self):
        controller, transport = make(schedule=(1,))

        async def scenario():
            transport.round_opened(1, asyncio.get_running_loop().time() + 1.0)
            await transport.send(data_frame(round_no=1))
            assert transport.afflicted == set()  # not charged yet
            transport.round_opened(2, asyncio.get_running_loop().time() + 2.0)
            return set(transport.afflicted)

        assert drive(transport, scenario) == {"S"}

    def test_stall_surfaces_after_deadline_and_charges(self):
        controller, transport = make(schedule=(2,))

        async def scenario():
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 1.0
            transport.round_opened(1, deadline)
            await transport.send(data_frame(round_no=1))
            transport.round_opened(2, deadline + 1.0)
            frame = await transport.recv("p1")
            return frame, loop.time() >= deadline, set(transport.afflicted)

        frame, past_deadline, afflicted = drive(transport, scenario)
        assert frame.round_no == 1
        assert past_deadline
        assert afflicted == {"S"}

    def test_defer_that_wins_its_race_charges_nobody(self):
        controller, transport = make(schedule=(3,))

        async def scenario():
            loop = asyncio.get_running_loop()
            transport.round_opened(1, loop.time() + 1.0)
            await transport.send(data_frame(round_no=1))
            # Still round 1 when it surfaces 0.45 timeouts later: on time.
            frame = await transport.recv("p1")
            return frame, set(transport.afflicted)

        frame, afflicted = drive(transport, scenario)
        assert frame.round_no == 1
        assert afflicted == set()

    def test_unconsumed_frames_charged_at_close(self):
        controller, transport = make(schedule=(1,))

        async def scenario():
            await transport.send(data_frame())

        drive(transport, scenario)
        assert transport.afflicted == {"S"}

    def test_unknown_destination_raises(self):
        from repro.exceptions import TransportError

        controller, transport = make()

        async def scenario():
            await transport.send(data_frame(destination="ghost"))

        with pytest.raises(TransportError, match="ghost"):
            drive(transport, scenario)


class TestInstanceAwareness:
    def test_rounds_are_tracked_per_instance(self):
        # Instance "b" opening round 2 must not make instance "a"'s
        # round-1 frames look stale: boundaries are per-instance.
        controller, transport = make()

        async def scenario():
            loop = asyncio.get_running_loop()
            frame = data_frame(round_no=1, instance="a")
            transport.round_opened(1, loop.time() + 1.0, instance="a")
            await transport.send(frame)
            transport.round_opened(2, loop.time() + 1.0, instance="b")
            consumed = await transport.recv("p1")
            return consumed, set(transport.afflicted)

        consumed, afflicted = drive(transport, scenario)
        assert consumed.instance == "a"
        assert afflicted == set()


class AuditedTransport(ExploredTransport):
    """Recomputes ``afflicted`` the way the transport did before it pruned
    ``_tracked``: every entry ever sent, rescanned at every round opening
    and at close.  ``audits`` collects one ``(afflicted, recomputed,
    longest scan)`` per closed transport."""

    audits = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent = []
        self.recomputed = set()
        self.longest_scan = 0

    def _miss(self, entries):
        self.recomputed.update(e.frame.source for e in entries if not e.consumed)

    async def send(self, frame):
        nbytes = await super().send(frame)
        self.sent.append(self._tracked[-1])
        return nbytes

    def round_opened(self, round_no, deadline, instance=None):
        self.longest_scan = max(self.longest_scan, len(self._tracked))
        self._miss(
            e for e in self.sent
            if e.frame.instance == instance and e.frame.round_no < round_no
        )
        super().round_opened(round_no, deadline, instance)

    async def recv(self, node):
        frame = await super().recv(node)
        if frame.round_no < self._instance_round.get(frame.instance, 0):
            self.recomputed.add(frame.source)
        return frame

    async def close(self):
        self._miss(self.sent)
        await super().close()
        self.audits.append((set(self.afflicted), self.recomputed, self.longest_scan))


class TestSettledEntriesLeaveTheScan:
    """``round_opened`` drops consumed entries, so it scans a round's
    frames, not the run's — and charges exactly whom the full rescan did."""

    @pytest.mark.no_wall_timeout
    @pytest.mark.parametrize(
        "config,depth,schedules,round_frames",
        [  # the three configurations the benchmark certifies
            (dict(), 2, 513, 12),
            (dict(supervise=True, faults=(("p1", "two-faced"), ("p2", "lie"))), 2, 513, 12),
            (dict(m=2, u=2, n_nodes=7), 1, 133, 30),
        ],
        ids=["n5-clean", "n5-supervised-faulty", "n7-clean"],
    )
    def test_same_afflicted_set_on_every_schedule(
        self, monkeypatch, config, depth, schedules, round_frames
    ):
        from repro.explore import ExploreConfig, explorer

        from tests.explore.reference_explorer import reference_explore

        # The search that runs every schedule, so all of them are audited.
        monkeypatch.setattr(explorer, "ExploredTransport", AuditedTransport)
        monkeypatch.setattr(AuditedTransport, "audits", [])
        report = reference_explore(
            ExploreConfig(**config), depth_bound=depth, budget=10**6,
            stop_at_first=False,
        )
        assert report.frontier_exhausted and report.ok
        audits = AuditedTransport.audits
        assert len(audits) == report.executions == schedules
        assert all(afflicted == recomputed for afflicted, recomputed, _ in audits)
        assert any(afflicted for afflicted, _, _ in audits)
        # Never more than the round just finished plus the schedule's
        # stragglers, whatever the number of rounds.
        assert max(scan for _, _, scan in audits) <= round_frames + depth
