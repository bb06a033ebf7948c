"""Explored transport: every frame's fate is a schedule decision point.

:class:`ExploredTransport` is an in-memory transport (the
:class:`~repro.net.transport.LocalBus` inboxes, no sockets, no copying)
with one twist: each ``send(frame)`` asks a :class:`ScheduleController`
what to do with the frame —

* ``deliver`` — enqueue immediately (the *default*: choosing it at every
  decision point reproduces the happy-path execution);
* ``drop`` — the frame never arrives; its receiver rides out the round
  deadline and resolves the missing paths to ``V_d`` (the paper's
  assumption (b), forced rather than suffered);
* ``stall`` — deliver *after* the round deadline: the receiver still
  sees an absence in-round, and the stale frame is metered as a late
  frame when it finally surfaces (the chaos layer's extreme-latency
  case, made deterministic);
* ``defer`` — deliver later but still inside the round: races the
  delivery against early round close (a receiver whose pending set
  resolves first consumes the frame a round late).

The controller records every decision into a *trail*; the choice indices
form the schedule token that replays the execution bit for bit.

**Partial-order pruning.**  The runner sorts each round's inbox into the
synchronous engine's delivery order before stepping, so *within-round
arrival order is protocol-irrelevant by construction* — two schedules
differing only in commuting deliveries reach identical protocol states.
The menus exploit that: ``defer`` is only offered where a delay can
actually race something (unbatched DATA vs. its trailing MARK); batched
frames and markers never offer it, and protocol-equivalent action pairs
(stalling vs. dropping a bare MARK — same inbox, same absences) are
collapsed.  Every option a menu withholds is counted, so the explorer
can report its pruning ratio.

**Fault accounting.**  A frame that misses the round it belongs to — by
drop, stall, or a defer that lost its race — is an absence the protocol
charges to silence, so the transport charges its *source* into
``afflicted`` exactly like the chaos layer's accounting: the explored
execution is then judged in the D.1–D.4 tier selected by its effective
fault count.  The transport detects misses positively (a tracked frame
not consumed by the time a later round opens) rather than trusting the
schedule, so defers that *won* their race charge nobody.

**Silent stalls.**  A stalled frame that surfaces after its destination
has stopped calling ``recv`` is, observably, its ``drop``: the transport
is the runner's only view of a frame, and an unconsumed stall is charged
by the same ``round_opened``/``close`` scan as a drop (``stall`` only
differs when the stale frame is *consumed* and metered as a late frame).
So the transport notes when each node last listened and when each
dropped frame's stall would have surfaced, and :meth:`silent_stalls`
names the drops whose stall nobody would have heard — the explorer
settles those stall schedules by their drop twin instead of running them.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.exceptions import ConfigurationError, TransportError
from repro.net.codec import BATCH, DATA, MARK, Frame
from repro.net.transport import LocalBus

NodeId = Hashable

# Schedule actions, in canonical menu order (index 0 is the default).
DELIVER = "deliver"
DROP = "drop"
STALL = "stall"
DEFER = "defer"

#: Fraction of the round timeout a deferred frame is delayed: late enough
#: to lose a race against an early round close, early enough to beat the
#: deadline when the receiver is still collecting.
DEFER_FRACTION = 0.45

#: How far past the round deadline a stalled frame surfaces.
STALL_FRACTION = 0.5


class ExploreScheduleError(ConfigurationError):
    """A schedule names a choice its decision point does not offer."""


@dataclass(frozen=True)
class DecisionPoint:
    """One consulted decision: which frame, what menu, what was chosen."""

    index: int
    round_no: int
    kind: str
    source: NodeId
    destination: NodeId
    menu: Tuple[str, ...]
    choice: int

    def __init__(
        self, index, round_no, kind, source, destination, menu, choice
    ) -> None:
        # One per explored frame: filled like repro.sim.trace.TraceEvent,
        # straight into the instance dict (same object, a third the cost).
        fields_ = self.__dict__
        fields_["index"] = index
        fields_["round_no"] = round_no
        fields_["kind"] = kind
        fields_["source"] = source
        fields_["destination"] = destination
        fields_["menu"] = menu
        fields_["choice"] = choice

    @property
    def action(self) -> str:
        return self.menu[self.choice]

    @property
    def label(self) -> str:
        return (
            f"#{self.index} r{self.round_no} {self.kind} "
            f"{self.source}->{self.destination}: "
            f"{self.action} (menu {'/'.join(self.menu)})"
        )


class ScheduleController:
    """Feeds a choice sequence to decision points, recording the trail.

    A *schedule* is a tuple of menu indices consumed in decision order;
    once it is exhausted every further decision takes the default
    (index 0, always ``deliver``).  The recorded trail — including each
    point's menu width — is what the explorer uses to enumerate sibling
    schedules and what the replay token serializes.
    """

    def __init__(self, schedule: Sequence[int] = ()) -> None:
        self.schedule: Tuple[int, ...] = tuple(int(c) for c in schedule)
        if any(c < 0 for c in self.schedule):
            raise ExploreScheduleError(
                f"schedule choices must be >= 0, got {self.schedule}"
            )
        self.trail: List[DecisionPoint] = []
        #: Total options offered across all decision points.
        self.offered = 0
        #: Options partial-order pruning removed from menus.
        self.pruned = 0

    def choose(
        self,
        round_no: int,
        kind: str,
        source: NodeId,
        destination: NodeId,
        menu: Sequence[str],
        pruned: int,
    ) -> str:
        index = len(self.trail)
        choice = self.schedule[index] if index < len(self.schedule) else 0
        if choice >= len(menu):
            raise ExploreScheduleError(
                f"decision #{index} ({kind} {source!r}->{destination!r} "
                f"round {round_no}) offers {len(menu)} options "
                f"{tuple(menu)}; schedule chose {choice}"
            )
        self.offered += len(menu)
        self.pruned += pruned
        point = DecisionPoint(
            index, round_no, kind, source, destination, tuple(menu), choice
        )
        self.trail.append(point)
        return point.action

    @property
    def choices(self) -> Tuple[int, ...]:
        return tuple(point.choice for point in self.trail)

    @property
    def deviations(self) -> int:
        """Number of non-default choices taken."""
        return sum(1 for point in self.trail if point.choice != 0)


@dataclass
class _Tracked:
    """Lifecycle of one sent frame, for positive miss detection."""

    frame: Frame
    action: str
    consumed: bool = False
    charged: bool = False
    timer: Optional[asyncio.TimerHandle] = field(default=None, repr=False)


class ExploredTransport(LocalBus):
    """In-memory transport whose deliveries the schedule decides.

    Decision index == send order: the runner awaits sends one by one.
    A delivered frame goes down the delivery path; when the path ends in
    this transport's :meth:`deliver`, the node's inbox queues the frame's
    :class:`_Tracked` entry and the read (:meth:`_take`) unwraps it.  A
    frame the path files elsewhere — a service mux's channel — counts as
    read when it is handed on.
    """

    name = "explored"

    def __init__(
        self,
        controller: ScheduleController,
        round_timeout: float,
    ) -> None:
        if round_timeout <= 0:
            raise ValueError(
                f"round_timeout must be > 0, got {round_timeout}"
            )
        super().__init__()
        self.controller = controller
        self.round_timeout = round_timeout
        #: Sources whose frames missed the round they belonged to.
        self.afflicted: Set[NodeId] = set()
        self._tracked: List[_Tracked] = []
        # Round numbers are per multiplexing instance (None outside a
        # mux), so boundaries and miss detection are keyed accordingly.
        self._deadlines: Dict[Tuple[object, int], float] = {}
        self._instance_round: Dict[object, int] = {}
        #: Last virtual instant each node was inside ``recv``.
        self._listened: Dict[NodeId, float] = {}
        #: Decision index of each dropped frame whose menu offers
        #: ``stall`` -> (destination, instant the stall would surface).
        self._drop_stalls: Dict[int, Tuple[NodeId, float]] = {}
        #: The entry :meth:`_deliver` is handing down the delivery path.
        self._filing: Optional[_Tracked] = None

    # ------------------------------------------------------------------
    # Menus (partial-order pruning lives here)
    # ------------------------------------------------------------------
    def _menu(self, frame: Frame) -> Tuple[Tuple[str, ...], int]:
        """Return (menu, pruned) for *frame*.

        ``pruned`` counts the actions withheld because they commute with
        an offered one: within-round reorderings of batched frames (the
        inbox sort makes them protocol-equivalent to immediate delivery),
        stalling a bare MARK (same inbox and same absence as dropping
        it).
        """
        if frame.kind == MARK:
            # defer commutes (the round closes later but sees the same
            # inbox); stall is protocol-equivalent to drop (the receiver
            # times out either way, the stale MARK carries no data).
            return (DELIVER, DROP), 2
        if frame.kind == BATCH:
            # In-round reorderings commute: the batch carries its own
            # mark, so a pre-deadline delay cannot lose a race.
            return (DELIVER, DROP, STALL), 1
        if frame.kind == DATA:
            # The one genuine in-round race: a deferred DATA frame can
            # lose against its source's MARK closing the round early.
            return (DELIVER, DROP, STALL, DEFER), 0
        return (DELIVER,), 0

    # ------------------------------------------------------------------
    # Transport contract
    # ------------------------------------------------------------------
    def round_opened(
        self, round_no: int, deadline: float, instance=None
    ) -> None:
        self._instance_round[instance] = max(
            self._instance_round.get(instance, 0), round_no
        )
        self._deadlines[(instance, round_no)] = deadline
        # Positive miss detection: anything of this instance from an
        # earlier round that is still unconsumed — queued, in flight, or
        # dropped — missed the round it belonged to.  Its source is an
        # absence the oracle must see as fault placement.
        # A consumed entry is settled — it was charged, if late, when it
        # was consumed — so it leaves the list here: the scan stays one
        # round's frames long however many rounds the run has.
        live = [entry for entry in self._tracked if not entry.consumed]
        for entry in live:
            if (
                entry.frame.instance == instance
                and entry.frame.round_no < round_no
            ):
                self._charge(entry)
        self._tracked = live

    async def send(self, frame: Frame) -> int:
        if frame.destination not in self._inboxes:
            raise TransportError(
                f"no endpoint for destination {frame.destination!r}"
            )
        menu, pruned = self._menu(frame)
        action = self.controller.choose(
            frame.round_no,
            frame.kind,
            frame.source,
            frame.destination,
            menu,
            pruned,
        )
        entry = _Tracked(frame=frame, action=action)
        self._tracked.append(entry)
        if action == DELIVER:
            self._deliver(entry)
            return 0
        loop = asyncio.get_running_loop()
        now = loop.time()
        if action == DEFER:
            when = now + DEFER_FRACTION * self.round_timeout
        else:  # where the frame's stall surfaces — or would have
            deadline = self._deadlines.get(
                (frame.instance, frame.round_no), now + self.round_timeout
            )
            when = deadline + STALL_FRACTION * self.round_timeout
        if action != DROP:
            entry.timer = loop.call_at(when, self._deliver, entry)
        elif STALL in menu:
            # Never arrives; charged when a later round opens.
            index = len(self.controller.trail) - 1
            self._drop_stalls[index] = (frame.destination, when)
        return 0

    async def recv(self, node: NodeId) -> Frame:
        inbox = self._inbox(node)
        loop = asyncio.get_running_loop()
        self._listened[node] = loop.time()
        try:
            entry = await inbox.get()
        finally:
            self._listened[node] = loop.time()
        return self._take(node, entry)

    def recv_nowait(self, node: NodeId) -> Optional[Frame]:
        inbox = self._inbox(node)
        if inbox.empty():
            self._listened[node] = asyncio.get_running_loop().time()
            return None
        return self._take(node, inbox.get_nowait())

    async def close(self) -> None:
        for entry in self._tracked:
            if entry.timer is not None:
                entry.timer.cancel()
            if not entry.consumed:
                self._charge(entry)
        await super().close()

    def silent_stalls(self) -> FrozenSet[int]:
        """Decision indices of drops whose ``stall`` nobody would hear.

        A drop is listed when its stall would have surfaced *strictly
        later* than the destination last listened (a tie counts as
        heard): flipping it to ``stall`` is then the same execution.
        """
        return frozenset(
            index
            for index, (destination, when) in self._drop_stalls.items()
            if when > self._listened.get(destination, float("-inf"))
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _take(self, node: NodeId, entry: _Tracked) -> Frame:
        """Hand over *entry*, just taken from *node*'s inbox: *node*
        listened now, the frame is consumed, and charged if it is a round
        late."""
        self._listened[node] = asyncio.get_running_loop().time()
        entry.consumed = True
        current = self._instance_round.get(entry.frame.instance, 0)
        if entry.frame.round_no < current:
            # Consumed, but a round late (a stalled frame surfacing, or a
            # defer that lost its race): still a miss.
            self._charge(entry)
        return entry.frame

    def deliver(self, node: NodeId, frame: Frame) -> None:
        entry, self._filing = self._filing, None
        if entry is None or entry.frame is not frame:
            # Filed from outside the schedule: tracked from here on.
            entry = _Tracked(frame=frame, action=DELIVER)
        inbox = self._inboxes.get(node)
        if inbox is not None:
            inbox.put_nowait(entry)

    def _deliver(self, entry: _Tracked) -> None:
        node = entry.frame.destination
        if node not in self._inboxes:
            return  # delivered after close: a miss, charged in close()
        self._filing = entry
        self._sink(node, entry.frame)
        if self._filing is entry:
            # Not filed here: handed past this transport, or dropped by a
            # filter on the way — read now, as a reader there sees it.
            self._filing = None
            self._take(node, entry)

    def _charge(self, entry: _Tracked) -> None:
        if not entry.charged:
            entry.charged = True
            self.afflicted.add(entry.frame.source)
