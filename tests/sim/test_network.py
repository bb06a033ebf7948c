"""Unit tests for the topology model."""

import pytest

from repro.exceptions import ConfigurationError, RoutingError
from repro.sim.network import Topology

NODES = ["a", "b", "c", "d", "e"]


class TestConstructors:
    def test_complete(self):
        topo = Topology.complete(NODES)
        assert topo.n_nodes == 5
        assert topo.is_complete()
        assert topo.connectivity() == 4

    def test_ring(self):
        topo = Topology.ring(NODES)
        assert topo.connectivity() == 2
        assert topo.has_edge("a", "b")
        assert topo.has_edge("a", "e")
        assert not topo.has_edge("a", "c")

    def test_from_edges(self):
        topo = Topology.from_edges(["x", "y", "z"], [("x", "y"), ("y", "z")])
        assert topo.has_edge("x", "y")
        assert not topo.has_edge("x", "z")
        assert topo.connectivity() == 1

    def test_from_edges_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            Topology.from_edges(["x"], [("x", "ghost")])

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(ConfigurationError):
            Topology.from_edges(["x", "y"], [("x", "x")])

    def test_empty_rejected(self):
        import networkx as nx

        with pytest.raises(ConfigurationError):
            Topology(nx.Graph())

    def test_harary_exact_connectivity(self):
        for k in (2, 3, 4):
            topo = Topology.k_connected_harary([f"n{i}" for i in range(8)], k)
            assert topo.connectivity() == k

    def test_harary_invalid_k(self):
        with pytest.raises(ConfigurationError):
            Topology.k_connected_harary(NODES, 5)
        with pytest.raises(ConfigurationError):
            Topology.k_connected_harary(NODES, 0)


class TestQueries:
    def test_neighbors(self):
        topo = Topology.ring(NODES)
        assert set(topo.neighbors("a")) == {"b", "e"}

    def test_disconnected_connectivity_zero(self):
        topo = Topology.from_edges(["x", "y", "z"], [("x", "y")])
        assert topo.connectivity() == 0

    def test_single_node(self):
        topo = Topology.from_edges(["x"], [])
        assert topo.connectivity() == 0

    def test_vertex_cut(self):
        # path graph a-b-c: cut = {b}
        topo = Topology.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert topo.vertex_cut() == frozenset({"b"})

    def test_vertex_cut_of_complete_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology.complete(NODES).vertex_cut()

    def test_components_without(self):
        topo = Topology.from_edges(
            ["a", "b", "c"], [("a", "b"), ("b", "c")]
        )
        components = topo.components_without({"b"})
        assert sorted(map(sorted, components)) == [["a"], ["c"]]

    def test_supports_degradable_agreement(self):
        complete5 = Topology.complete(NODES)
        assert complete5.supports_degradable_agreement(1, 2)  # needs 5 nodes, k=4
        assert not complete5.supports_degradable_agreement(1, 3)  # needs 6 nodes
        ring = Topology.ring(NODES)
        assert not ring.supports_degradable_agreement(1, 2)  # k=2 < 4

    def test_frozen_graph(self):
        topo = Topology.complete(NODES)
        with pytest.raises(Exception):
            topo.graph.add_edge("new1", "new2")


class TestDisjointPaths:
    def test_complete_graph_paths(self):
        topo = Topology.complete(NODES)
        paths = topo.disjoint_paths("a", "b", 4)
        assert len(paths) == 4
        # direct link is the shortest and sorts first
        assert paths[0] == ("a", "b")
        # vertex-disjointness of interiors
        interiors = [set(p[1:-1]) for p in paths]
        for i, s1 in enumerate(interiors):
            for s2 in interiors[i + 1:]:
                assert not (s1 & s2)

    def test_direct_link_first_on_a_sparse_graph(self):
        # The final sort puts the direct link first on any graph, not only
        # on the complete one.
        ring = Topology.ring(NODES)
        for a, b in (("a", "b"), ("e", "a"), ("c", "b")):
            assert ring.disjoint_paths(a, b, 2)[0] == (a, b)
        harary = Topology.k_connected_harary([f"n{i}" for i in range(8)], 3)
        for a, b in (("n0", "n1"), ("n4", "n0"), ("n1", "n5")):
            assert harary.has_edge(a, b)
            paths = harary.disjoint_paths(a, b, 3)
            assert paths[0] == (a, b)
            assert all(len(p) > 2 for p in paths[1:])

    def test_insufficient_paths_raise(self):
        topo = Topology.ring(NODES)
        with pytest.raises(RoutingError):
            topo.disjoint_paths("a", "c", 3)

    def test_no_path_raises(self):
        topo = Topology.from_edges(["x", "y", "z"], [("x", "y")])
        with pytest.raises(RoutingError):
            topo.disjoint_paths("x", "z", 1)

    def test_same_endpoints_raise(self):
        with pytest.raises(RoutingError):
            Topology.complete(NODES).disjoint_paths("a", "a", 1)

    def test_paths_start_and_end_correctly(self):
        topo = Topology.k_connected_harary([f"n{i}" for i in range(9)], 4)
        paths = topo.disjoint_paths("n0", "n4", 4)
        for p in paths:
            assert p[0] == "n0" and p[-1] == "n4"


class TestRandomConnected:
    def test_meets_connectivity_floor(self):
        topo = Topology.random_with_connectivity(
            [f"n{i}" for i in range(10)], min_connectivity=3,
            edge_probability=0.6, seed=1,
        )
        assert topo.connectivity() >= 3

    def test_reproducible(self):
        nodes = [f"n{i}" for i in range(8)]
        a = Topology.random_with_connectivity(nodes, 2, 0.5, seed=9)
        b = Topology.random_with_connectivity(nodes, 2, 0.5, seed=9)
        assert set(a.graph.edges) == set(b.graph.edges)

    def test_impossible_connectivity_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology.random_with_connectivity(["a", "b"], 2, 0.9)

    def test_hopeless_probability_gives_up(self):
        with pytest.raises(ConfigurationError):
            Topology.random_with_connectivity(
                [f"n{i}" for i in range(8)], 4, 0.05, seed=1, max_attempts=5
            )

    def test_probability_validated(self):
        with pytest.raises(ConfigurationError):
            Topology.random_with_connectivity(["a", "b", "c"], 1, 1.5)


class TestSharedAndFrozen:
    """``complete`` is memoized on the node tuple; a topology never changes."""

    def test_complete_returns_one_shared_instance(self):
        first = Topology.complete(NODES)
        assert Topology.complete(list(NODES)) is first
        assert Topology.complete(tuple(NODES)) is first
        assert Topology.complete(NODES[:4]) is not first
        assert Topology.complete(list(reversed(NODES))) is not first

    def test_mutating_the_graph_still_raises(self):
        import networkx as nx

        for topo in (Topology.complete(NODES), Topology.ring(NODES)):
            with pytest.raises(nx.NetworkXError):
                topo.graph.remove_edge("a", "b")
            with pytest.raises(nx.NetworkXError):
                topo.graph.add_node("ghost")
        assert Topology.complete(NODES).has_edge("a", "b")

    def test_links_mirror_the_graph(self):
        topo = Topology.from_edges(NODES, [("a", "b"), ("b", "c")])
        assert topo.links == {
            "a": {"b"}, "b": {"a", "c"}, "c": {"b"}, "d": set(), "e": set(),
        }
        assert topo.links is topo.links  # read off the graph once
        complete = Topology.complete(NODES)
        assert all(
            (b in complete.links[a]) == complete.has_edge(a, b)
            for a in NODES for b in NODES
        )
