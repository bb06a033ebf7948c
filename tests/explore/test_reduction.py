"""One run per behaviour, checked against the search that runs everything.

``explore`` settles a schedule without running it in two ways: a settled
twin reported the flipped drop *silent* (the stall would have surfaced
after its destination stopped listening), or a settled twin is the same
schedule with the receivers relabelled by a permutation that fixes the
configuration.  Both claims are exact, so the gates are too — on every
frontier small enough to run both ways, against
``reference_explorer.reference_explore`` (the pre-reduction loop,
verbatim):

* both settle the same number of schedules; what the live search runs,
  the reference ran byte for byte, and every schedule it leaves unrun is
  a stall twin or an orbit twin of one it ran;
* a stall somebody consumed (its frame has a ``late-frame`` line) is never
  one its drop twin calls silent;
* a silent drop flipped to ``stall``, executed directly, equals its twin —
  fingerprint, ``to_jsonl()`` bytes, decisions, afflicted set, verdict,
  and trail apart from the flipped choices;
* every schedule, executed directly, equals the first schedule of its
  orbit relabelled: decisions, afflicted set, verdict, trail, silent
  drops and the ``to_jsonl()`` lines (``TestOrbitTwins``);
* the group is computed from the configuration (``TestSymmetryGroup``);
* a stall landing exactly on an instant its destination still listens at
  is run; the planted vote bug dies at the same execution with the same
  token; ``budget`` caps runs, not settled schedules.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations, product
from typing import Dict, FrozenSet, List, Tuple

import pytest

from repro.explore import (
    DROP,
    STALL,
    ExploreConfig,
    explore,
    explorer,
    run_schedule,
    transport,
)
from repro.explore.explorer import symmetry_classes

from tests.explore import reference_explorer
from tests.explore.reference_explorer import reference_explore

#: name -> (config, depth bound, schedules in the frontier, runs needed,
#: stalls consumed across the frontier).  Only the batched two-round
#: frontiers at depth 2 hold a consumed stall: it takes a second absence
#: to keep the destination listening until the stale frame surfaces.
#: Runs are one per orbit left after the silent stalls: the group is S4
#: on p1..p4 fault-free, S3 on p2..p4 beside a liar, the p2<->p4 swap
#: beside a two-faced p1 (its faces tell p3 apart), and trivial for the
#: supervised-faulty and the unbatched frontiers.
FRONTIERS = {
    "n5-clean": (ExploreConfig(), 2, 513, 13, 24),
    "n5-supervised-faulty": (
        ExploreConfig(
            supervise=True, faults=(("p1", "two-faced"), ("p2", "lie"))
        ),
        2,
        513,
        149,
        24,
    ),
    "n5-lie": (ExploreConfig(faults=(("p1", "lie"),)), 2, 513, 35, 24),
    "n5-two-faced-d1": (
        ExploreConfig(faults=(("p1", "two-faced"),)), 1, 33, 11, 0
    ),
    "n5-unbatched": (ExploreConfig(batching=False), 2, 5839, 4263, 0),
    "n5-unbatched-d1": (ExploreConfig(batching=False), 1, 109, 93, 0),
    "n7-clean": (ExploreConfig(m=2, u=2, n_nodes=7), 1, 133, 4, 0),
}

#: The frontiers whose configuration has a non-trivial symmetry group.
ORBIT_FRONTIERS = ["n5-clean", "n5-lie", "n5-two-faced-d1", "n7-clean"]


@dataclass(frozen=True)
class Seen:
    """What one executed schedule showed, small enough to keep 10 000 of."""

    fingerprint: str
    jsonl: bytes  # sha256 of the record's to_jsonl() bytes
    consumed: FrozenSet[int]  # stalls whose frame has a late-frame line
    decisions: Tuple
    afflicted: FrozenSet
    codes: Tuple
    shape: Tuple  # the trail without its choices
    choices: Tuple[int, ...]
    silent: FrozenSet[int]


def see(outcome) -> Seen:
    text = outcome.record.to_jsonl()
    late = set()  # (frame round, frame kind, source, destination)
    for line in text.splitlines():
        if '"kind":"late-frame"' in line:
            event = json.loads(line)
            meta = dict(event["meta"]["items"])
            late.add(
                (meta["frame_round"], meta["frame"],
                 event["source"], event["destination"])
            )
    return Seen(
        fingerprint=outcome.fingerprint,
        jsonl=hashlib.sha256(text.encode()).digest(),
        consumed=frozenset(
            p.index
            for p in outcome.trail
            if p.action == STALL
            and (p.round_no, p.kind, p.source, p.destination) in late
        ),
        decisions=tuple(sorted(outcome.decisions.items(), key=str)),
        afflicted=outcome.afflicted,
        codes=tuple(outcome.report.codes),
        shape=tuple(
            (p.index, p.round_no, p.kind, p.source, p.destination, p.menu)
            for p in outcome.trail
        ),
        choices=tuple(p.choice for p in outcome.trail),
        silent=outcome.silent_stalls,
    )


def watch(patch, module, texts=None) -> Dict[Tuple[int, ...], Seen]:
    """Record every schedule *module*'s search runs: prefix -> Seen (and
    prefix -> ``to_jsonl()`` text into *texts*, when given)."""
    ran: Dict[Tuple[int, ...], Seen] = {}

    def watched(config, schedule=(), events=None):
        outcome = run_schedule(config, schedule, events=events)
        ran[tuple(schedule)] = see(outcome)
        if texts is not None:
            texts[tuple(schedule)] = outcome.record.to_jsonl()
        return outcome

    patch.setattr(module, "run_schedule", watched)
    return ran


def flipped(schedule, indices, choice):
    return tuple(
        choice if i in indices else c for i, c in enumerate(schedule)
    )


def stall_twins(ran):
    """Every (child, flipped indices, stall choice, twin's schedule, twin)
    the silent drops of the runs in *ran* name: the child is the twin
    with those drops flipped to ``stall``."""
    for schedule, twin in ran.items():
        menus = [point[5] for point in twin.shape]
        assert all(menus[i][schedule[i]] == DROP for i in twin.silent)
        for size in range(1, len(twin.silent) + 1):
            for indices in combinations(sorted(twin.silent), size):
                stall = menus[indices[0]].index(STALL)
                child = flipped(schedule, indices, stall)
                yield child, indices, stall, schedule, twin


def group(config) -> List[Dict[str, str]]:
    """Every receiver permutation :func:`symmetry_classes` allows, as
    ``{node: image}``."""
    classes = symmetry_classes(config)
    return [
        {
            node: image
            for members, images in zip(classes, chosen)
            for node, image in zip(members, images)
        }
        for chosen in product(*(permutations(c) for c in classes))
    ]


def frames(seen) -> FrozenSet[tuple]:
    """A run's deviations by frame identity."""
    return frozenset(
        (r, src, dst, menu[choice])
        for (_, r, _, src, dst, menu), choice in zip(seen.shape, seen.choices)
        if choice
    )


def relabel(deviations, sigma) -> FrozenSet[tuple]:
    return frozenset(
        (r, sigma.get(src, src), sigma.get(dst, dst), action)
        for r, src, dst, action in deviations
    )


#: A receiver's name as a whole JSON string: where a trace line names one.
RECEIVER = re.compile(r'"(p[0-9]+)"')


def jsonl_lines(text, sigma=None) -> Counter:
    """The multiset of a record's ``to_jsonl()`` lines, every receiver
    name relabelled by *sigma* and the set-valued fields re-sorted: the
    header's ``nodes``/``faulty`` and each ``expected`` payload."""
    if sigma:
        text = RECEIVER.sub(
            lambda match: '"%s"' % sigma.get(match[1], match[1]), text
        )
    lines = Counter()
    for line in text.splitlines():
        if '"schema":' in line or '"kind":"expected"' in line:
            event = json.loads(line)
            if "schema" in event:
                event["nodes"] = sorted(event["nodes"])
                event["faulty"] = sorted(event["faulty"])
            else:
                event["payload"]["items"] = sorted(event["payload"]["items"])
            line = json.dumps(event, sort_keys=True)
        lines[line] += 1
    return lines


@dataclass
class Frontier:
    name: str
    reference: object
    reference_ran: Dict[Tuple[int, ...], Seen]
    texts: Dict[Tuple[int, ...], str]  # reference runs' to_jsonl()
    report: object
    ran: Dict[Tuple[int, ...], Seen]
    perms: List[Dict[str, str]]

    @cached_property
    def orbits(self) -> Dict[tuple, List[Tuple[int, ...]]]:
        """The reference's schedules by orbit, each in run order."""
        orbits: Dict[tuple, List[Tuple[int, ...]]] = {}
        for schedule, seen in self.reference_ran.items():
            deviations = frames(seen)
            key = min(
                tuple(sorted(relabel(deviations, sigma), key=repr))
                for sigma in self.perms
            )
            orbits.setdefault(key, []).append(schedule)
        return orbits


@lru_cache(maxsize=None)
def explored(name) -> Frontier:
    config, depth = FRONTIERS[name][:2]
    bounds = dict(depth_bound=depth, budget=10**6, stop_at_first=False)
    texts = {} if name in ORBIT_FRONTIERS else None
    with pytest.MonkeyPatch.context() as patch:
        reference_ran = watch(patch, reference_explorer, texts)
        reference = reference_explore(config, **bounds)
        ran = watch(patch, explorer)
        report = explore(config, **bounds)
    return Frontier(
        name, reference, reference_ran, texts, report, ran, group(config)
    )


#: Ten thousand runs, a third of tier-1's wall: ``scripts/ci.sh`` runs it
#: (``-m slow``); tier-1 keeps the same assertions on the depth-1 frontier.
SLOW = {"n5-unbatched"}


@pytest.fixture(
    scope="module",
    params=[
        pytest.param(name, marks=pytest.mark.slow) if name in SLOW else name
        for name in FRONTIERS
    ],
)
def frontier(request):
    return explored(request.param)


@pytest.fixture(scope="module", params=ORBIT_FRONTIERS)
def orbit_frontier(request):
    return explored(request.param)


@pytest.fixture(scope="module", autouse=True)
def forget_frontiers():
    yield
    explored.cache_clear()  # the kept trace texts are ~30 MB


@pytest.mark.no_wall_timeout
class TestReducedSearchAgainstTheReference:
    def test_same_frontier_settled(self, frontier):
        reference, report = frontier.reference, frontier.report
        _, _, schedules, runs, _ = FRONTIERS[frontier.name]
        assert reference.frontier_exhausted and reference.ok
        assert report.frontier_exhausted and report.ok
        assert reference.executions == len(frontier.reference_ran)
        assert reference.executions == schedules
        assert report.executions == len(frontier.ran) == runs
        assert report.schedules == report.executions + report.covered
        assert report.schedules == schedules
        assert reference.covered == 0

    def test_same_fingerprint_set(self, frontier):
        # A relabelled execution has its own fingerprint, so the runs see
        # one per orbit; with the trivial group that is all of them.
        ran = {s.fingerprint for s in frontier.ran.values()}
        everything = {s.fingerprint for s in frontier.reference_ran.values()}
        assert frontier.report.unique_fingerprints == len(ran)
        if len(frontier.perms) == 1:
            assert ran == everything
            assert len(ran) == frontier.reference.unique_fingerprints
        else:
            assert ran < everything

    def test_what_is_run_is_what_the_reference_ran(self, frontier):
        for schedule, seen in frontier.ran.items():
            assert frontier.reference_ran[schedule] == seen, schedule

    def test_a_consumed_stall_is_never_silent(self, frontier):
        reference_ran = frontier.reference_ran
        consumed = [
            (schedule, i)
            for schedule, seen in reference_ran.items()
            for i in seen.consumed
        ]
        assert len(consumed) == FRONTIERS[frontier.name][4]
        for schedule, i in consumed:
            drop = reference_ran[schedule].shape[i][5].index(DROP)
            assert i not in reference_ran[flipped(schedule, {i}, drop)].silent
        # ... so a schedule whose every stall is consumed is never settled
        # as a stall twin (and with the trivial group it is always run).
        all_heard = {
            schedule
            for schedule, seen in reference_ran.items()
            if seen.consumed
            and len(seen.consumed) == sum(
                seen.shape[i][5][c] == STALL for i, c in enumerate(schedule)
            )
        }
        assert bool(all_heard) == bool(consumed)
        assert not all_heard & {c for c, *_ in stall_twins(reference_ran)}
        if len(frontier.perms) == 1:
            assert all_heard <= set(frontier.ran)

    def test_covered_schedules_are_their_twins(self, frontier):
        reference_ran, ran = frontier.reference_ran, frontier.ran
        # Every silent drop of the whole frontier, flipped, is its twin.
        for child, indices, stall, _, twin in stall_twins(reference_ran):
            direct = reference_ran[child]  # run_schedule(config, child)
            assert direct.choices == flipped(twin.choices, indices, stall)
            assert (
                direct.fingerprint, direct.jsonl, direct.consumed,
                direct.decisions, direct.afflicted, direct.codes,
                direct.shape, direct.silent,
            ) == (
                twin.fingerprint, twin.jsonl, twin.consumed,
                twin.decisions, twin.afflicted, twin.codes,
                twin.shape, twin.silent - set(indices),
            ), child
        if len(frontier.perms) > 1:
            return
        # With the trivial group the runs' stall twins are the rest.
        covered = [child for child, *_ in stall_twins(ran)]
        assert len(covered) == len(set(covered)) == frontier.report.covered
        assert set(covered) == set(reference_ran) - set(ran)

    def test_every_unrun_schedule_is_a_twin_of_a_run(self, frontier):
        # Join stall twins and orbits; each class must hold a run, so
        # every schedule settled unrun is some run, relabelled or not.
        parent = {schedule: schedule for schedule in frontier.reference_ran}

        def root(schedule):
            while parent[schedule] != schedule:
                schedule = parent[schedule]
            return schedule

        def join(a, b):
            parent[root(a)] = root(b)

        for child, _, _, schedule, _ in stall_twins(frontier.reference_ran):
            join(child, schedule)
        for members in frontier.orbits.values():
            for schedule in members[1:]:
                join(schedule, members[0])
        classes = {root(schedule) for schedule in parent}
        assert {root(schedule) for schedule in frontier.ran} == classes


@pytest.mark.no_wall_timeout
class TestOrbitTwins:
    """Every schedule, run directly, is the first run of its orbit with
    the receivers relabelled — the claim the orbit cover rests on."""

    def test_an_orbit_is_its_first_run_relabelled(self, orbit_frontier):
        frontier = orbit_frontier
        nodes = frontier.reference.config.nodes()
        index = {node: i for i, node in enumerate(nodes)}
        twins = 0
        for first_schedule, *others in frontier.orbits.values():
            first = frontier.reference_ran[first_schedule]
            deviations = frames(first)
            for schedule in others:
                seen = frontier.reference_ran[schedule]
                sigma = next(
                    sigma for sigma in frontier.perms
                    if relabel(deviations, sigma) == frames(seen)
                )
                node = {n: sigma.get(n, n) for n in nodes}
                assert dict(seen.decisions) == {
                    node[n]: v for n, v in first.decisions
                }, schedule
                assert seen.afflicted == {node[n] for n in first.afflicted}
                assert sorted(seen.codes) == sorted(first.codes)
                # The trail relabelled, back in node order, is this trail.
                moved = sorted(
                    (
                        (r, index[node[src]], index[node[dst]]),
                        i,
                        (r, kind, node[src], node[dst], menu, choice),
                    )
                    for (i, r, kind, src, dst, menu), choice in zip(
                        first.shape, first.choices
                    )
                )
                assert [point for _, _, point in moved] == [
                    (r, kind, src, dst, menu, choice)
                    for (_, r, kind, src, dst, menu), choice in zip(
                        seen.shape, seen.choices
                    )
                ], schedule
                position = {i: j for j, (_, i, _) in enumerate(moved)}
                assert seen.silent == {position[i] for i in first.silent}
                assert jsonl_lines(frontier.texts[schedule]) == jsonl_lines(
                    frontier.texts[first_schedule], sigma
                ), schedule
                twins += 1
        assert twins == len(frontier.reference_ran) - len(frontier.orbits)
        assert twins > 0


RECEIVERS = ("p1", "p2", "p3", "p4")


def images(config):
    """The group as the set of images of (p1, p2, p3, p4)."""
    return {
        tuple(sigma.get(n, n) for n in RECEIVERS) for sigma in group(config)
    }


class TestSymmetryGroup:
    """The receiver permutations that fix a configuration, read off it."""

    def test_fault_free_is_every_permutation(self):
        assert images(ExploreConfig()) == set(permutations(RECEIVERS))

    def test_two_faced_beside_a_liar_is_trivial(self):
        config = ExploreConfig(faults=(("p1", "two-faced"), ("p2", "lie")))
        assert symmetry_classes(config) == ()
        assert images(config) == {RECEIVERS}

    def test_two_faced_faces_leave_one_swap(self):
        # p1 shows p2 and p4 one face and p3 the other.
        config = ExploreConfig(faults=(("p1", "two-faced"),))
        assert symmetry_classes(config) == (("p2", "p4"),)
        assert images(config) == {RECEIVERS, ("p1", "p4", "p3", "p2")}

    def test_a_liar_leaves_the_other_three(self):
        config = ExploreConfig(faults=(("p1", "lie"),))
        assert images(config) == {
            ("p1",) + rest for rest in permutations(RECEIVERS[1:])
        }

    def test_unbatched_is_trivial(self):
        assert symmetry_classes(ExploreConfig(batching=False)) == ()

    @pytest.mark.parametrize(
        "faults",
        [(), (("S", "two-faced"),), (("S", "lie"),), (("p3", "silent"),)],
        ids=["fault-free", "two-faced-sender", "lying-sender", "silent-p3"],
    )
    def test_the_sender_never_moves(self, faults):
        config = ExploreConfig(faults=faults)
        assert all("S" not in c for c in symmetry_classes(config))
        assert all(sigma.get("S", "S") == "S" for sigma in group(config))

    def test_a_two_faced_sender_splits_the_receivers_by_face(self):
        config = ExploreConfig(faults=(("S", "two-faced"),))
        assert symmetry_classes(config) == (("p1", "p3"), ("p2", "p4"))


class TestTheBoundary:
    """S->p1 dropped in round 1, p2->p1 dropped in round 2: p1 rides out
    both deadlines, so it last listens at the second one."""

    def schedule(self):
        (second,) = (
            p.index
            for p in run_schedule(ExploreConfig()).trail
            if (p.round_no, p.source, p.destination) == (2, "p2", "p1")
        )
        return (1,) + (0,) * (second - 1) + (1,)

    @pytest.mark.parametrize(
        "fraction,silent",
        [(0.5, False), (1.0, False), (1.0 + 2**-20, True), (1.5, True)],
        ids=["heard", "tie-counts-as-heard", "just-past", "past"],
    )
    def test_strictly_later_than_the_last_listen(
        self, monkeypatch, fraction, silent
    ):
        monkeypatch.setattr(transport, "STALL_FRACTION", fraction)
        outcome = run_schedule(ExploreConfig(), self.schedule())
        assert (0 in outcome.silent_stalls) is silent

    def test_a_tie_is_run_not_covered(self, monkeypatch):
        monkeypatch.setattr(transport, "STALL_FRACTION", 1.0)
        ran = watch(monkeypatch, explorer)
        report = explore(
            ExploreConfig(), depth_bound=2, budget=10**6, stop_at_first=False
        )
        assert report.frontier_exhausted and report.schedules == 513
        tie = flipped(self.schedule(), {0}, 2)
        assert tie in ran and self.schedule() in ran
        assert 0 not in ran[self.schedule()].silent


class TestSameVerdictsSameBudget:
    def test_planted_bug_dies_at_the_same_execution(self):
        broken = ExploreConfig(vote_offset=1)
        reduced = explore(broken, depth_bound=2, budget=150)
        reference = reference_explore(broken, depth_bound=2, budget=150)
        (found,), (expected,) = reduced.violations, reference.violations
        assert reduced.executions == reference.executions == 2
        assert found.found.schedule == expected.found.schedule
        assert found.token == expected.token
        assert found.shrunk.deviations == 1
        assert found.shrink_runs == expected.shrink_runs

    def test_budget_caps_runs_not_covered(self):
        spent = explore(ExploreConfig(), depth_bound=2, budget=10)
        assert spent.budget_exhausted and not spent.frontier_exhausted
        assert spent.executions == 10 and spent.covered > 0
        exact = explore(ExploreConfig(), depth_bound=2, budget=13)
        assert exact.frontier_exhausted and not exact.budget_exhausted
        assert (exact.executions, exact.covered) == (13, 500)


@pytest.mark.no_wall_timeout
def test_running_example_exhausts_clean_at_depth_three():
    report = explore(
        ExploreConfig(), depth_bound=3, budget=10**6, stop_at_first=False
    )
    assert report.frontier_exhausted and report.ok
    assert (report.executions, report.schedules) == (53, 4993)
    assert report.unique_fingerprints == 53
