"""Differential test: the shape-table EIG path against the reference.

``tests/core/reference_eig.py`` holds ``EIGTree``, ``vote`` and
``AgreementProcess`` as they were — a recursive generator per
``expected_paths`` call, a recursive ``_resolve_path``, five path checks in
``_ingest`` re-checked by ``store``, ``stored_paths`` re-sorted per round,
``collections.Counter`` per vote.  The live ones read one memoized
``EIGShape`` instead and must agree with the reference on everything
observable: the same paths *in the same order*, the same folds and errors,
the same outgoing messages, substitution counts and ``defaulted`` events.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import eig as live_eig
from repro.core.eig import EIGTree, eig_shape
from repro.core.protocol import AgreementProcess
from repro.core.values import DEFAULT
from repro.core.vote import vote
from repro.exceptions import ConfigurationError, ProtocolError
from repro.sim.messages import Message, RelayPayload
from repro.sim.trace import EventKind, EventTrace

from tests.core import reference_eig as reference

VALUES = ["a", "b", DEFAULT]
TAG = "byz"


# ----------------------------------------------------------------------
# Shapes: N 3..8, depth 1..4, every owner/root, three kinds of node id
# ----------------------------------------------------------------------
@st.composite
def node_lists(draw, max_nodes=8):
    n_nodes = draw(st.integers(3, max_nodes))
    style = draw(st.sampled_from(["str", "int", "mixed"]))
    # Ints whose ``str`` order differs from their natural order (10 < 2 as
    # text), so a sort by the wrong key shows.
    ints = draw(st.permutations([2, 10, 3, 21, 100, 7, 19, 1]))[:n_nodes]
    if style == "int":
        return list(ints)
    names = [f"p{k}" for k in draw(st.permutations(range(12)))[:n_nodes]]
    if style == "str":
        return names
    return [ints[k] if k % 2 else names[k] for k in range(n_nodes)]


@st.composite
def shapes(draw, max_nodes=8, max_depth=4):
    nodes = draw(node_lists(max_nodes))
    owner = draw(st.sampled_from(nodes))
    root = draw(st.sampled_from(nodes))  # root == owner included
    depth = draw(st.integers(1, max_depth))
    return nodes, owner, root, depth


def outcome(call):
    """``("ok", value)`` or ``(error type, message)`` — comparable."""
    try:
        value = call()
    except (ProtocolError, ConfigurationError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", value


@settings(max_examples=200, deadline=None)
@given(shapes())
def test_expected_paths_equal_as_lists(shape):
    nodes, owner, root, depth = shape
    live, ref = EIGTree(owner, nodes, depth), reference.EIGTree(owner, nodes, depth)
    for length in range(-1, depth + 3):
        assert list(live.expected_paths(length, root)) == list(
            ref.expected_paths(length, root)
        )


@settings(max_examples=100, deadline=None)
@given(shapes())
def test_level_slices_are_the_children(shape):
    # The fold's only child table: children of levels[k][i] are a slice of
    # levels[k + 1], in the order the reference recursion visits them.
    nodes, owner, root, depth = shape
    levels = eig_shape(tuple(nodes), owner, root, depth).levels
    assert len(levels) == depth + 1 and levels[0] == ()
    for length in range(1, depth):
        parents, below = levels[length], levels[length + 1]
        if not parents:  # more levels than nodes: nothing left to extend
            assert not below
            continue
        fan = len(below) // len(parents)
        for index, path in enumerate(parents):
            assert list(below[index * fan:(index + 1) * fan]) == [
                path + (child,)
                for child in nodes
                if child not in path and child != owner
            ]
        assert fan * len(parents) == len(below)


@settings(max_examples=300, deadline=None)
@given(shapes(), st.data())
def test_store_and_resolve_match_the_reference(shape, data):
    nodes, owner, root, depth = shape
    live, ref = EIGTree(owner, nodes, depth), reference.EIGTree(owner, nodes, depth)
    # Every path either tree could hold for this root, plus some rooted
    # elsewhere (the store is root-agnostic).
    other_root = data.draw(st.sampled_from(nodes))
    candidates = [
        path
        for start in (root, other_root)
        for length in range(1, depth + 1)
        for path in ref.expected_paths(length, start)
    ]
    fill = data.draw(st.sampled_from(["random", "all_default", "all_same", "tie"]))
    if fill != "random":  # every path present, in any filing order
        chosen = data.draw(st.permutations(candidates))
    elif candidates:
        chosen = data.draw(st.lists(st.sampled_from(candidates), unique=True))
    else:
        chosen = []
    for index, path in enumerate(chosen):
        if fill == "random":
            value = data.draw(st.sampled_from(VALUES))
        else:
            value = {"all_default": DEFAULT, "all_same": "a", "tie": "ab"[index % 2]}[fill]
        live.store(path, value)
        ref.store(path, value)
    assert list(live.items()) == list(ref.items()) and len(live) == len(ref)
    for length in range(0, depth + 2):
        assert live.stored_paths(length) == ref.stored_paths(length)
    for m in range(0, 4):
        for resolver in ("byz_resolver", "majority_resolver"):
            got = outcome(
                lambda: live.resolve(root, m, getattr(live_eig, resolver))
            )
            want = outcome(
                lambda: ref.resolve(root, m, getattr(reference, resolver))
            )
            assert got == want  # the value, or the same path and numbers named


def test_non_positive_threshold_is_the_same_error():
    # m too large for the tree: the recursion raises at the first path it
    # meets on the level whose threshold is not positive.
    nodes = ["S", "A", "B", "C", "D"]
    for depth in (2, 3, 4):
        # The deepest internal level, depth - 1, votes with N - (depth - 1) - m.
        for m in range(len(nodes) - (depth - 1), 7):
            live, ref = EIGTree("A", nodes, depth), reference.EIGTree("A", nodes, depth)
            want = outcome(lambda: ref.resolve("S", m))
            assert outcome(lambda: live.resolve("S", m)) == want
            assert want[0] == "ProtocolError" and "non-positive" in want[1]


def test_root_equal_owner_matches_the_reference():
    nodes = ["S", "A", "B", "C"]
    for depth in (1, 2, 3, 4):
        for m in (0, 1):
            live, ref = EIGTree("A", nodes, depth), reference.EIGTree("A", nodes, depth)
            assert list(live.expected_paths(depth, "A")) == []
            assert outcome(lambda: live.resolve("A", m)) == outcome(
                lambda: ref.resolve("A", m)
            )


# ----------------------------------------------------------------------
# vote
# ----------------------------------------------------------------------
_ballots = st.lists(
    st.sampled_from(["a", "b", "c", DEFAULT, 1, 1.0, True, 0, None, ("t", 1)]),
    max_size=9,
)


@settings(max_examples=1000, deadline=None)
@given(_ballots, st.integers(-1, 11))
def test_vote_matches_the_reference(ballots, threshold):
    got = outcome(lambda: vote(threshold, ballots))
    want = outcome(lambda: reference.vote(threshold, ballots))
    assert got[0] == want[0]
    if want[0] == "ok":
        # Identity, not equality: 1, 1.0 and True count as one ballot value
        # and the winner is its first occurrence.
        assert got[1] is want[1]
    else:
        assert got[1] == want[1]


@pytest.mark.parametrize(
    "threshold, ballots, expected",
    [
        (2, ["a", "b", "b", "a"], DEFAULT),  # the paper's tie
        (2, [DEFAULT, DEFAULT, "a"], DEFAULT),  # V_d as the winner
        (3, ["a", "a", "a"], "a"),  # alpha == beta: unanimity
        (3, ["a", "a", "b"], DEFAULT),
        (1, ["a", "b", "c"], DEFAULT),  # three winners
        (1, ["a"], "a"),
    ],
)
def test_vote_named_cases(threshold, ballots, expected):
    assert vote(threshold, ballots) == expected == reference.vote(threshold, ballots)


def test_vote_errors_unchanged():
    for threshold, ballots in ((0, ["a"]), (-2, []), (2, ["a"]), (1, [])):
        with pytest.raises(ConfigurationError) as live:
            vote(threshold, ballots)
        with pytest.raises(ConfigurationError) as ref:
            reference.vote(threshold, ballots)
        assert str(live.value) == str(ref.value)


# ----------------------------------------------------------------------
# AgreementProcess.step on random inboxes
# ----------------------------------------------------------------------
#: Malformed relays ``_ingest`` must ignore.  The last two get past the
#: reference's own guards and make its ``store`` *raise* — the one
#: documented difference (see reference_eig's docstring): the reference is
#: fed the inbox without them and the live process the whole inbox, and
#: the two must still agree.
IGNORED = [
    "wrong_length", "wrong_root", "owner_on_path", "wrong_last_hop",
    "wrong_tag", "not_a_relay",
]
RAISES_IN_REFERENCE = ["repeated_node", "unknown_node"]


def craft(kind, rng, nodes, owner, sender, wave, round_sent):
    """One malformed message of *kind* for the wave of length *wave*, or None."""
    others = [n for n in nodes if n not in (owner, sender)]
    rng.shuffle(others)
    value = rng.choice(VALUES)

    def relay(path, source=None, tag=TAG):
        return Message(
            path[-1] if source is None else source, owner,
            RelayPayload(tuple(path), value), round_sent, tag,
        )

    honest = [sender] + others[: wave - 1]
    if len(honest) != wave:
        return None
    if kind == "wrong_length":
        path = honest + others[wave - 1: wave] if rng.random() < 0.5 else honest[:-1]
        return relay(path) if path and len(path) != wave else None
    if kind == "wrong_root":
        if not others:
            return None
        return relay([others[-1]] + honest[1:]) if others[-1] not in honest[1:] else None
    if kind == "owner_on_path":
        return relay(honest[:-1] + [owner]) if wave > 1 else relay([owner])
    if kind == "wrong_last_hop":
        return relay(honest, source=owner if wave == 1 else sender)
    if kind == "wrong_tag":
        return relay(honest, tag="other-protocol")
    if kind == "not_a_relay":
        return Message(honest[-1], owner, ("raw", tuple(honest), value), round_sent, TAG)
    if kind == "repeated_node":
        return relay(honest[:-2] + [honest[-1], honest[-1]]) if wave >= 3 else None
    if kind == "unknown_node":
        return relay(honest[:-1] + ["ghost"]) if wave >= 2 else None
    raise AssertionError(kind)


def build_inbox(rng, ref_tree, nodes, owner, sender, wave, round_sent):
    """``[(kind, message)]``: the honest wave thinned, duplicated and salted."""
    entries = []
    for path in ref_tree.expected_paths(wave, sender):
        roll = rng.random()
        if roll < 0.25:
            continue  # absent: must become a V_d substitution
        # roll > 0.8: a duplicate with another value — the last one wins
        for _copy in range(2 if roll > 0.8 else 1):
            payload = RelayPayload(path, rng.choice(VALUES))
            entries.append(
                ("honest", Message(path[-1], owner, payload, round_sent, TAG))
            )
    for kind in IGNORED + RAISES_IN_REFERENCE:
        if rng.random() < 0.6:
            message = craft(kind, rng, nodes, owner, sender, wave, round_sent)
            if message is not None:
                entries.append((kind, message))
    rng.shuffle(entries)
    return entries


def make_pair(nodes, owner, sender, m, depth, resolver):
    pair = []
    for module, cls in ((live_eig, AgreementProcess), (reference, reference.AgreementProcess)):
        process = cls(
            owner, nodes, sender, m, depth, getattr(module, resolver), tag=TAG
        )
        process.trace = EventTrace()
        pair.append(process)
    return pair


@settings(max_examples=300, deadline=None)
@given(
    shapes(max_nodes=7, max_depth=4),
    st.integers(0, 2),
    st.sampled_from(["byz_resolver", "majority_resolver"]),
    st.integers(0, 2**32 - 1),
)
def test_process_steps_match_the_reference(shape, m, resolver, seed):
    nodes, owner, sender, depth = shape
    assume(owner != sender)
    rng = random.Random(seed)
    live, ref = make_pair(nodes, owner, sender, m, depth, resolver)
    for round_no in range(1, depth + 2):
        entries = build_inbox(
            rng, ref.tree, nodes, owner, sender, round_no - 1, round_no - 1
        )
        full = [message for _kind, message in entries]
        admissible = [
            message for kind, message in entries if kind not in RAISES_IN_REFERENCE
        ]
        got = outcome(lambda: live.step(round_no, full))
        want = outcome(lambda: ref.step(round_no, admissible))
        assert got == want
        assert live.absence_substitutions == ref.absence_substitutions
        assert live.trace.events == ref.trace.events
        assert list(live.tree.items()) == list(ref.tree.items())
        if want[0] != "ok":
            return  # both raised the same error out of resolve
    assert live.decided and ref.decided and live.decision == ref.decision
    kinds = {event.kind for event in live.trace.events}
    assert kinds <= {EventKind.DEFAULTED, EventKind.DECIDED}


def test_reference_raises_where_the_live_ingest_ignores():
    """The documented difference, pinned from both sides."""
    nodes, owner, sender = ["S", "A", "B", "C", "D"], "A", "S"
    for kind in RAISES_IN_REFERENCE:
        live, ref = make_pair(nodes, owner, sender, 1, 3, "byz_resolver")
        message = craft(kind, random.Random(3), nodes, owner, sender, 3, 3)
        for process in (live, ref):
            process.step(1, [])
            process.step(2, [])
            process.step(3, [])
        with pytest.raises(ProtocolError):
            ref.step(4, [message])
        live.step(4, [message])
        assert not any(
            path == message.payload.path for path, _value in live.tree.items()
        )
        assert live.decided


def test_unhashable_hop_is_ignored():
    # What a hostile frame can decode to: a tuple path with a list inside.
    nodes, owner, sender = ["S", "A", "B", "C", "D"], "A", "S"
    live, _ref = make_pair(nodes, owner, sender, 1, 2, "byz_resolver")
    live.step(1, [])
    good = Message("S", "A", RelayPayload(("S",), "v"), 1, TAG)
    bad = Message("S", "A", RelayPayload((["S"],), "junk"), 1, TAG)
    live.step(2, [good, bad])
    assert dict(live.tree.items()) == {("S",): "v"}
