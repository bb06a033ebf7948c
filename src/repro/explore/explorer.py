"""Bounded schedule-space exploration over the real async runtime.

One :class:`ExploreConfig` pins an agreement instance — spec, sender
value, behaviour assignments, wire mode, virtual round deadline — and a
*schedule* (tuple of menu indices) pins one execution of it: the runner,
the fault injectors and (optionally) the supervision layer run unmodified
on a :class:`~repro.explore.clock.VirtualClockLoop` over an
:class:`~repro.explore.transport.ExploredTransport`, and the schedule
decides every frame's fate.  :func:`run_schedule` executes exactly one
such schedule, folds the trace into a
:class:`~repro.verify.record.RunRecord` and judges it with the
conformance oracle — so the explorer inherits all fourteen violation
codes plus the D.1–D.4 tier checks for free.

:func:`explore` then enumerates schedules with a delay-bounded DFS: it
runs the all-defaults schedule, reads back the recorded decision trail,
and branches on every decision point with every non-default option —
bounded by the number of non-default choices (*depth_bound*, the
classical delay bound) and by a total execution *budget*.  Each child
prefix extends its parent at a decision index past the parent's own
prefix, so every schedule is generated exactly once — and *run* at most
once per observable behaviour up to receiver relabelling: a schedule
that only flips a drop nobody would have heard as a ``stall``, or one
whose receivers a symmetry of the configuration relabels onto a settled
schedule, is settled by the run it repeats (``covered``, see
:func:`explore`).  A violating
execution is shrunk to a minimal prefix (greedily zeroing deviations,
then lowering the survivors) before being reported with its replay
token.

Fault accounting mirrors the chaos layer: schedule-induced misses charge
their source into the record's ``faulty`` set, so each execution is
judged in the tier its *effective* fault count selects — schedules that
knock out more than ``u`` sources are archived, not asserted, exactly
like chaos runs beyond the degradation envelope.  On a correct protocol
no in-bound schedule can produce a violation; the explorer exists to
prove that claim execution by execution instead of assuming it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import permutations, product
from math import isfinite
from typing import ClassVar, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.eig import byz_resolver
from repro.core.protocol import ProtocolSession
from repro.core.scenario import (  # FAULT_KINDS, SENDER: re-exported
    FAULT_KINDS,
    INSTANCE_FIELDS,
    SENDER,
    Instance,
    absent,
    flag,
    format_token,
    parse_token,
)
from repro.core.spec import DegradableSpec
from repro.exceptions import ConfigurationError
from repro.explore.clock import run_on_virtual_clock
from repro.explore.transport import (
    STALL,
    DecisionPoint,
    ExploredTransport,
    ScheduleController,
)
from repro.net.runner import AsyncRoundRunner, NetRunOutcome
from repro.net.stack import build_stack
from repro.sim.faults import behavior_injectors
from repro.verify.oracle import ConformanceReport, verify_record
from repro.verify.record import RunRecord, record_net_outcome


def _schedule_field(text: str) -> Tuple[int, ...]:
    return () if absent(text) else tuple(int(c) for c in text.split("."))


#: The explore replay grammar: token key -> (keyword, conversion); every
#: keyword but ``schedule`` is an :class:`ExploreConfig` field.
TOKEN_FIELDS = {
    **INSTANCE_FIELDS,
    "timeout": ("round_timeout", float),
    "batch": ("batching", flag),
    "sup": ("supervise", flag),
    "bug": ("vote_offset", int),
    "sched": ("schedule", _schedule_field),
}


# ----------------------------------------------------------------------
# Configuration and replay tokens
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExploreConfig(Instance):
    """One fully determined agreement instance to explore schedules of:
    an :class:`~repro.core.scenario.Instance` (defaulting to the paper's
    running example) plus the wire mode and the virtual round deadline."""

    grammar: ClassVar[str] = "explore"

    m: int = 1
    u: int = 2
    n_nodes: int = 5
    #: Virtual round deadline — schedule delays scale with it, so its
    #: exact value never changes which executions exist, only their
    #: virtual timestamps.
    round_timeout: float = 1.0
    batching: bool = True
    #: Wrap the stack in a SupervisedTransport, covering the supervision
    #: layer's send/recv path under explored schedules.
    supervise: bool = False
    #: TEST-ONLY HOOK: skew every ``VOTE`` threshold by this offset
    #: (clamped to the legal [1, beta] band).  A non-zero offset plants a
    #: deliberately broken vote for the explorer to catch; production
    #: configurations always use 0.
    vote_offset: int = 0

    def __post_init__(self) -> None:
        self.spec()  # validate N > 2m + u eagerly
        # The virtual clock's horizon and every schedule delay scale with
        # the deadline: 0, a negative, nan or inf describes no execution.
        if not (isfinite(self.round_timeout) and self.round_timeout > 0):
            raise ConfigurationError(
                f"timeout must be finite and > 0, got {self.round_timeout}"
            )

    def token(self, schedule: Sequence[int] = ()) -> str:
        """Replay token naming this config plus one schedule."""
        sched = ".".join(str(c) for c in trim_schedule(schedule)) or "-"
        return format_token(
            self.token_fields()
            + [
                ("timeout", self.round_timeout),
                ("batch", int(self.batching)),
                ("sup", int(self.supervise)),
                ("bug", self.vote_offset),
                ("sched", sched),
            ]
        )


def trim_schedule(schedule: Sequence[int]) -> Tuple[int, ...]:
    """Canonical form: trailing defaults are implied, so strip them."""
    choices = list(schedule)
    while choices and choices[-1] == 0:
        choices.pop()
    return tuple(choices)


def parse_explore_token(token: str) -> Tuple[ExploreConfig, Tuple[int, ...]]:
    """Inverse of :meth:`ExploreConfig.token`."""
    fields = parse_token(token, "explore", TOKEN_FIELDS)
    schedule = fields.pop("schedule", ())
    return ExploreConfig(**fields), schedule


# ----------------------------------------------------------------------
# Single-schedule execution
# ----------------------------------------------------------------------
@dataclass
class ScheduleOutcome:
    """One explored execution, fully judged.

    ``silent_stalls`` holds the decision indices of this execution's
    drops whose ``stall`` nobody would have heard
    (:meth:`ExploredTransport.silent_stalls`): the schedule with any of
    them flipped to ``stall`` is this same execution.
    """

    config: ExploreConfig
    schedule: Tuple[int, ...]
    trail: Tuple[DecisionPoint, ...]
    report: ConformanceReport
    record: RunRecord
    decisions: Dict[object, object]
    fingerprint: str
    afflicted: FrozenSet[object]
    offered: int
    pruned: int
    silent_stalls: FrozenSet[int]

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def token(self) -> str:
        return self.config.token(self.schedule)

    @property
    def deviations(self) -> int:
        return sum(1 for c in self.schedule if c != 0)

    def render(self) -> str:
        status = "ok" if self.ok else "VIOLATION"
        tier = self.config.spec().guarantee_for(len(self.record.faulty))
        lines = [
            f"[{status}] {self.token}",
            f"    decisions: "
            + ", ".join(
                f"{n}={v}" for n, v in sorted(
                    self.decisions.items(), key=lambda kv: str(kv[0])
                )
            ),
            f"    afflicted: "
            + (", ".join(sorted(map(str, self.afflicted))) or "(none)")
            + f" -> tier {tier}",
            f"    fingerprint: {self.fingerprint}",
        ]
        if not self.ok:
            for violation in self.report.violations:
                lines.append(f"    {violation.render()}")
        for point in self.trail:
            if point.choice != 0:
                lines.append(f"    {point.label}")
        return "\n".join(lines)


def _skewed_resolver(offset: int):
    """The deliberately broken vote: threshold off by *offset*, clamped
    into the legal band so the bug degrades decisions instead of raising."""

    def resolve(threshold, ballots):
        skewed = min(max(threshold + offset, 1), len(ballots))
        return byz_resolver(skewed, ballots)

    return resolve


def run_schedule(
    config: ExploreConfig,
    schedule: Sequence[int] = (),
    events=None,
) -> ScheduleOutcome:
    """Execute one schedule of *config* on the virtual clock and judge it."""
    spec = config.spec()
    nodes = config.nodes()
    controller = ScheduleController(schedule)
    transport = ExploredTransport(
        controller, round_timeout=config.round_timeout
    )

    async def _run() -> NetRunOutcome:
        stack, _ = build_stack(transport, None, None, config.supervise)
        session = ProtocolSession.byz(
            spec, nodes, SENDER, config.sender_value
        )
        if config.vote_offset:
            broken = _skewed_resolver(config.vote_offset)
            for process in session.processes:
                process.resolver = broken
        runner = AsyncRoundRunner(
            session,
            transport=stack,
            injectors=behavior_injectors(config.behaviors()),
            round_timeout=config.round_timeout,
            batching=config.batching,
            events=events,
        )
        result = await runner.run()
        return NetRunOutcome(
            result=result, metrics=runner.metrics, trace=runner.trace
        )

    outcome = run_on_virtual_clock(_run())
    faulty = set(config.behavior_faulty) | set(transport.afflicted)
    record = record_net_outcome(
        spec,
        nodes,
        SENDER,
        config.sender_value,
        faulty,
        outcome,
        batched=config.batching,
    )
    report = verify_record(record)
    return ScheduleOutcome(
        config=config,
        schedule=trim_schedule(controller.choices),
        trail=tuple(controller.trail),
        report=report,
        record=record,
        decisions=dict(outcome.decisions),
        fingerprint=record.fingerprint(),
        afflicted=frozenset(transport.afflicted),
        offered=controller.offered,
        pruned=controller.pruned,
        silent_stalls=transport.silent_stalls(),
    )


def run_token(token: str, events=None) -> ScheduleOutcome:
    """Replay one ``repro explore`` token bit for bit."""
    config, schedule = parse_explore_token(token)
    return run_schedule(config, schedule, events=events)


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def shrink_schedule(
    config: ExploreConfig,
    schedule: Sequence[int],
    outcome: Optional[ScheduleOutcome] = None,
) -> Tuple[ScheduleOutcome, int]:
    """Minimize a violating schedule while preserving *some* violation.

    Greedy fixpoint: repeatedly try zeroing each deviation (rightmost
    first — later deviations are the likeliest to be incidental), then
    lowering each surviving choice index.  The result is 1-minimal:
    removing or lowering any single remaining deviation loses the
    violation.  Returns the shrunk outcome and the number of candidate
    executions it cost.
    """
    current = trim_schedule(schedule)
    best = outcome if outcome is not None else run_schedule(config, current)
    if best.ok:
        raise ConfigurationError(
            f"refusing to shrink a conforming schedule: {best.token}"
        )
    runs = 0
    improved = True
    while improved:
        improved = False
        deviations = [i for i, c in enumerate(current) if c != 0]
        for i in reversed(deviations):
            candidate = trim_schedule(
                current[:i] + (0,) + current[i + 1:]
            )
            attempt = run_schedule(config, candidate)
            runs += 1
            if not attempt.ok:
                current, best = candidate, attempt
                improved = True
                break
        if improved:
            continue
        for i in reversed([i for i, c in enumerate(current) if c > 1]):
            for lower in range(1, current[i]):
                candidate = current[:i] + (lower,) + current[i + 1:]
                attempt = run_schedule(config, candidate)
                runs += 1
                if not attempt.ok:
                    current, best = candidate, attempt
                    improved = True
                    break
            if improved:
                break
    return best, runs


# ----------------------------------------------------------------------
# Receiver symmetry
# ----------------------------------------------------------------------
def symmetry_classes(config: ExploreConfig) -> Tuple[Tuple[str, ...], ...]:
    """The receivers a relabelling may permute: colour classes of two or
    more, each in node order.

    A receiver's colour is its fault kind (``None`` when fault-free) plus
    the face every per-destination table of the configuration (the
    ``faces`` of ``two-faced``) shows it; the sender has no colour and
    never moves.  The symmetry group is every colour-preserving
    permutation — the product of the symmetric groups on these classes,
    trivial when there are none.  Unbatched wire mode always has the
    trivial group: its same-instant timers fire in arming order, which is
    node order, so a relabelled schedule may race differently.
    """
    if not config.batching:
        return ()
    kinds = dict(config.faults)
    tables = [
        behavior.faces
        for behavior in config.behaviors().values()
        if hasattr(behavior, "faces")
    ]
    classes: Dict[tuple, List[str]] = {}
    for node in config.nodes():
        if node != SENDER:
            colour = (kinds.get(node), tuple(t.get(node) for t in tables))
            classes.setdefault(colour, []).append(node)
    return tuple(tuple(c) for c in classes.values() if len(c) > 1)


class _Orbits:
    """Settled schedules by orbit under the receiver symmetry group.

    A schedule is named by its deviations' frame identities ``(round,
    source, destination, action)``, nodes as indices into
    ``config.nodes()``; its *key* is the least image of that set under
    the group.  Only the receivers the deviations name are relabelled,
    and only onto the first members of their class: any image can be
    pushed down onto those, in order, without growing, so the least
    image is among them.
    """

    def __init__(self, nodes: Sequence[str], classes) -> None:
        self.index = {node: i for i, node in enumerate(nodes)}
        self.classes = [[self.index[n] for n in c] for c in classes]
        self.class_of = {
            i: k for k, members in enumerate(self.classes) for i in members
        }
        #: key -> (relabelling onto the key, trail, {silent drop: stall}).
        self.settled: Dict[tuple, tuple] = {}

    def key(self, schedule, trail) -> Tuple[tuple, Dict[int, int]]:
        """*schedule*'s key and the relabelling of its named receivers
        onto it; *trail* is the one *schedule* was enumerated from."""
        index = self.index
        deviations = [
            (
                trail[i].round_no,
                index[trail[i].source],
                index[trail[i].destination],
                trail[i].menu[choice],
            )
            for i, choice in enumerate(schedule)
            if choice
        ]
        named: Dict[int, List[int]] = {}  # class -> its named receivers
        for node in {n for _, s, d, _ in deviations for n in (s, d)}:
            if node in self.class_of:
                named.setdefault(self.class_of[node], []).append(node)
        best = None
        for images in product(
            *(
                permutations(self.classes[k][: len(members)])
                for k, members in named.items()
            )
        ):
            relabel = {
                node: image
                for k, image_k in zip(named, images)
                for node, image in zip(named[k], image_k)
            }
            image = tuple(
                sorted(
                    (r, relabel.get(s, s), relabel.get(d, d), a)
                    for r, s, d, a in deviations
                )
            )
            if best is None or image < best[0]:
                best = (image, relabel)
        return best

    def cover(self, key, relabel) -> Optional[tuple]:
        """``(trail, {silent drop: stall})`` of the schedule that *relabel*
        carries onto *key*, read off the settled twin with that key —
        None when nothing with the key has settled, or when the twin's
        trail is not in node order or the relabelling does not carry its
        shape onto itself (then the schedule is run)."""
        settled = self.settled.get(key)
        if settled is None:
            return None
        theirs, trail, stalls = settled
        back = {image: node for node, image in relabel.items()}
        sigma = list(range(len(self.index)))
        for node, image in theirs.items():
            sigma[node] = back[image]
        for members in self.classes:  # complete it within each class
            taken = {sigma[n] for n in members if n in theirs}
            spare = [n for n in members if n not in taken]
            free = [n for n in members if n not in theirs]
            for node, image in zip(free, spare):
                sigma[node] = image
        index = self.index
        frames = [
            (p.round_no, index[p.source], index[p.destination])
            for p in trail
        ]
        if any(a >= b for a, b in zip(frames, frames[1:])):
            return None
        position = {frame: i for i, frame in enumerate(frames)}
        moved = {}
        for i, (round_no, source, destination) in enumerate(frames):
            j = position.get((round_no, sigma[source], sigma[destination]))
            if (
                j is None
                or trail[j].kind != trail[i].kind
                or trail[j].menu != trail[i].menu
            ):
                return None
            moved[i] = j
        return trail, {moved[i]: stall for i, stall in stalls.items()}


# ----------------------------------------------------------------------
# Bounded DFS
# ----------------------------------------------------------------------
@dataclass
class ExploreViolation:
    """One violating schedule: as found, and shrunk to a minimal prefix."""

    found: ScheduleOutcome
    shrunk: ScheduleOutcome
    shrink_runs: int

    @property
    def token(self) -> str:
        return self.shrunk.token

    def render(self) -> str:
        lines = [
            f"violation found at schedule {self.found.schedule} "
            f"({self.found.deviations} deviations), shrunk to "
            f"{self.shrunk.schedule} ({self.shrunk.deviations}) "
            f"in {self.shrink_runs} candidate runs",
            self.shrunk.render(),
            f'    replay: python -m repro explore --replay "{self.token}"',
        ]
        return "\n".join(lines)


@dataclass
class ExploreReport:
    """Everything one bounded exploration produced.

    ``executions`` counts schedules actually *run* (what ``budget`` caps
    and ``schedules_per_sec`` divides; ``decision_points``, ``offered``,
    ``pruned`` and ``unique_fingerprints`` are over them); ``covered``
    counts schedules settled without a run, by the execution they are
    known to repeat, possibly with the receivers relabelled.
    """

    config: ExploreConfig
    depth_bound: int
    budget: int
    executions: int = 0
    covered: int = 0
    decision_points: int = 0
    offered: int = 0
    pruned: int = 0
    violations: List[ExploreViolation] = field(default_factory=list)
    budget_exhausted: bool = False
    frontier_exhausted: bool = False
    #: Seconds spent exploring: the runs ``executions`` counts.
    elapsed: float = 0.0
    #: Seconds spent shrinking violations (the runs ``shrink_runs`` count).
    shrink_elapsed: float = 0.0
    unique_fingerprints: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def schedules(self) -> int:
        """Schedules settled: run or covered."""
        return self.executions + self.covered

    @property
    def schedules_per_sec(self) -> float:
        return self.executions / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def pruning_ratio(self) -> float:
        total = self.offered + self.pruned
        return self.pruned / total if total else 0.0

    def render(self) -> str:
        status = "ok" if self.ok else "VIOLATIONS"
        if self.frontier_exhausted:
            reach = (
                f"frontier exhausted at depth {self.depth_bound}: "
                f"{self.schedules} schedules settled ({self.executions} run "
                f"+ {self.covered} covered: a stall nobody listened for is "
                f"its drop, a receiver relabelling of a settled schedule is "
                f"that schedule)"
            )
        else:
            why = (
                "budget spent"
                if self.budget_exhausted
                else "stopped at the first violation"
            )
            reach = (
                f"{why} after {self.executions} runs: frontier NOT "
                f"exhausted at depth {self.depth_bound} "
                f"({self.schedules} schedules settled, {self.covered} "
                f"covered)"
            )
        lines = [
            f"[{status}] {reach}; budget {self.budget}, "
            f"{self.decision_points} decision points "
            f"in {self.elapsed:.2f}s "
            f"({self.schedules_per_sec:.0f} runs/s)"
            + (
                f", shrinking took {self.shrink_elapsed:.2f}s"
                if self.violations
                else ""
            ),
            f"    partial-order pruning: {self.pruned} of "
            f"{self.offered + self.pruned} options pruned "
            f"({self.pruning_ratio:.0%}); "
            f"{self.unique_fingerprints} distinct execution fingerprints",
        ]
        for violation in self.violations:
            lines.append(violation.render())
        return "\n".join(lines)


def explore(
    config,
    depth_bound: int = 2,
    budget: int = 200,
    stop_at_first: bool = True,
    events=None,
) -> ExploreReport:
    """Delay-bounded DFS over the schedule space of *config*.

    *config* may be an :class:`ExploreConfig` or a bare
    :class:`~repro.core.spec.DegradableSpec` (explored fault-free with
    defaults).  *depth_bound* caps the number of non-default choices per
    schedule; *budget* caps total executions (schedule runs; shrinking a
    violation is budgeted separately since it terminates quickly — and
    timed separately, as ``shrink_elapsed``, so ``schedules_per_sec``
    divides the executions counted by the time they took).

    One run per observable behaviour: a run reports its *silent stalls*
    — drops whose ``stall`` would have surfaced after the destination
    stopped listening — and the schedule with such a drop flipped to
    ``stall`` is that same execution (``docs/runtime.md`` §12).  When
    the DFS reaches it, it is settled without a run: counted in
    ``report.covered``, same fingerprint, same verdict (a violation is
    reported once, by the twin that ran), children enumerated from the
    twin's trail.  The flipped schedule inherits the twin's remaining
    silent drops, so the rule composes to any depth.

    One run per orbit: when the configuration has receiver symmetries
    (:func:`symmetry_classes`), a schedule whose relabelled image has
    settled is covered the same way — the twin's verdict, children from
    the twin's trail and the twin's silent drops, both mapped through the
    relabelling by frame identity.  A twin whose trail is not in node
    order is never covered from; the schedule is run.
    """
    if isinstance(config, DegradableSpec):
        config = ExploreConfig(
            m=config.m, u=config.u, n_nodes=config.n_nodes
        )
    if depth_bound < 0:
        raise ConfigurationError(
            f"depth_bound must be >= 0, got {depth_bound}"
        )
    if budget < 1:
        raise ConfigurationError(f"budget must be >= 1, got {budget}")
    report = ExploreReport(
        config=config, depth_bound=depth_bound, budget=budget
    )
    started = time.perf_counter()
    fingerprints = set()
    # Schedules a settled one covers: schedule -> (the twin's trail,
    # {silent drop index: its stall choice}).  Flipping drop to stall
    # moves a schedule later in DFS order, so a twin always settles
    # before the schedule it covers is popped.
    covered_by: Dict[Tuple[int, ...], tuple] = {}
    classes = symmetry_classes(config)
    orbits = _Orbits(config.nodes(), classes) if classes else None
    # (schedule, the trail it was enumerated from)
    stack: List[Tuple[Tuple[int, ...], tuple]] = [((), ())]
    while stack:
        prefix, parent = stack.pop()
        twin = covered_by.pop(prefix, None)
        if orbits is not None:
            key, relabel = orbits.key(prefix, parent)
            if twin is None:
                twin = orbits.cover(key, relabel)
        if twin is not None:
            trail, stalls = twin
            report.covered += 1
        elif report.executions >= budget:
            report.budget_exhausted = True
            break
        else:
            outcome = run_schedule(config, prefix, events=events)
            report.executions += 1
            report.decision_points += len(outcome.trail)
            report.offered += outcome.offered
            report.pruned += outcome.pruned
            fingerprints.add(outcome.fingerprint)
            if not outcome.ok:
                shrink_started = time.perf_counter()
                shrunk, shrink_runs = shrink_schedule(
                    config, outcome.schedule, outcome
                )
                report.shrink_elapsed += (
                    time.perf_counter() - shrink_started
                )
                report.violations.append(
                    ExploreViolation(
                        found=outcome, shrunk=shrunk, shrink_runs=shrink_runs
                    )
                )
                if stop_at_first:
                    break
            trail = outcome.trail
            stalls = {
                i: trail[i].menu.index(STALL) for i in outcome.silent_stalls
            }
        if orbits is not None:
            orbits.settled.setdefault(key, (relabel, trail, stalls))
        for i, stall in stalls.items():
            others = {j: s for j, s in stalls.items() if j != i}
            covered_by[prefix[:i] + (stall,) + prefix[i + 1:]] = (
                trail, others
            )
        if sum(1 for c in prefix if c != 0) >= depth_bound:
            continue
        # Branch on every decision at or past this prefix: each child is
        # generated from exactly one parent, so the search tree never
        # revisits a schedule.  (Past the prefix every choice was 0.)
        choices = prefix + (0,) * (len(trail) - len(prefix))
        children: List[Tuple[int, ...]] = []
        for i in range(len(prefix), len(trail)):
            for alternative in range(1, len(trail[i].menu)):
                children.append(choices[:i] + (alternative,))
        # LIFO stack + reversed children = earliest decision points are
        # explored first, keeping shallow (early-round) deviations ahead
        # of deep ones under tight budgets.
        stack.extend((child, trail) for child in reversed(children))
    else:
        report.frontier_exhausted = True
    report.unique_fingerprints = len(fingerprints)
    report.elapsed = (
        time.perf_counter() - started - report.shrink_elapsed
    )
    return report
