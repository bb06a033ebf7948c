"""Tests for the EIG tree store and resolve fold."""

import pytest

from repro.core.eig import (
    EIGTree,
    byz_resolver,
    majority_resolver,
)
from repro.core.values import DEFAULT
from repro.exceptions import ProtocolError

NODES = ["S", "A", "B", "C", "D"]


def make_tree(owner="A", depth=2):
    return EIGTree(owner, NODES, depth)


class TestValidation:
    def test_depth_positive(self):
        with pytest.raises(ProtocolError):
            EIGTree("A", NODES, 0)

    def test_owner_must_be_member(self):
        with pytest.raises(ProtocolError):
            EIGTree("Z", NODES, 2)

    def test_path_cannot_contain_owner(self):
        tree = make_tree()
        with pytest.raises(ProtocolError):
            tree.store(("S", "A"), 1)

    def test_path_cannot_repeat(self):
        tree = make_tree()
        with pytest.raises(ProtocolError):
            tree.store(("S", "S"), 1)

    def test_path_depth_bounded(self):
        tree = make_tree(depth=1)
        with pytest.raises(ProtocolError):
            tree.store(("S", "B"), 1)

    def test_unknown_node(self):
        tree = make_tree()
        with pytest.raises(ProtocolError):
            tree.store(("Z",), 1)

    def test_empty_path(self):
        tree = make_tree()
        with pytest.raises(ProtocolError):
            tree.store((), 1)


class TestStorage:
    def test_store_and_read(self):
        tree = make_tree()
        tree.store(("S",), "v")
        assert tree.value(("S",)) == "v"
        assert tree.has(("S",))

    def test_missing_reads_default(self):
        tree = make_tree()
        assert tree.value(("S",)) is DEFAULT
        assert not tree.has(("S",))

    def test_stored_paths_by_length(self):
        tree = make_tree()
        tree.store(("S",), 1)
        tree.store(("S", "B"), 2)
        tree.store(("S", "C"), 3)
        assert tree.stored_paths(1) == [("S",)]
        assert tree.stored_paths(2) == [("S", "B"), ("S", "C")]

    def test_len_and_items(self):
        tree = make_tree()
        tree.store(("S",), 1)
        assert len(tree) == 1
        assert dict(tree.items()) == {("S",): 1}


class TestExpectedPaths:
    def test_depth1(self):
        tree = make_tree(owner="A")
        assert list(tree.expected_paths(1, "S")) == [("S",)]

    def test_depth2_excludes_owner(self):
        tree = make_tree(owner="A")
        paths = set(tree.expected_paths(2, "S"))
        assert paths == {("S", "B"), ("S", "C"), ("S", "D")}


class TestResolveBYZ:
    def test_unanimous_tree(self):
        tree = make_tree(owner="A", depth=2)
        tree.store(("S",), "v")
        for j in ("B", "C", "D"):
            tree.store(("S", j), "v")
        # n=5, m=1: top threshold = n-1-m = 3 over 4 ballots
        assert tree.resolve("S", m=1) == "v"

    def test_one_liar_outvoted(self):
        tree = make_tree(owner="A", depth=2)
        tree.store(("S",), "v")
        tree.store(("S", "B"), "w")  # B lied
        tree.store(("S", "C"), "v")
        tree.store(("S", "D"), "v")
        assert tree.resolve("S", m=1) == "v"

    def test_below_threshold_defaults(self):
        tree = make_tree(owner="A", depth=2)
        tree.store(("S",), "v")
        tree.store(("S", "B"), "w")
        tree.store(("S", "C"), "w")
        tree.store(("S", "D"), "v")
        assert tree.resolve("S", m=1) is DEFAULT

    def test_missing_leaves_count_as_default(self):
        tree = make_tree(owner="A", depth=2)
        tree.store(("S",), "v")
        tree.store(("S", "B"), "v")
        tree.store(("S", "C"), "v")
        # (S, D) never arrived -> V_d ballot; still 3 >= threshold
        assert tree.resolve("S", m=1) == "v"

    def test_majority_resolver_gives_om(self):
        tree = make_tree(owner="A", depth=2)
        tree.store(("S",), "v")
        tree.store(("S", "B"), "w")
        tree.store(("S", "C"), "v")
        tree.store(("S", "D"), "v")
        assert tree.resolve("S", m=1, resolver=majority_resolver) == "v"

    def test_depth3_recursion(self):
        nodes = ["S"] + list("ABCDEFG")  # 8 nodes, m=2, depth 3
        tree = EIGTree("A", nodes, 3)
        tree.store(("S",), "v")
        others = [x for x in "BCDEFG"]
        for j in others:
            tree.store(("S", j), "v")
            for k in others:
                if k != j:
                    tree.store(("S", j, k), "v")
        assert tree.resolve("S", m=2) == "v"

    def test_ballot_threshold_error_surfaces(self):
        # A tree too small for its m: threshold would be non-positive.
        tree = EIGTree("A", ["S", "A", "B"], 2)
        tree.store(("S",), "v")
        with pytest.raises(ProtocolError):
            tree.resolve("S", m=2)
