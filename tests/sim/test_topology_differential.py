"""Differential test: the adjacency-map topology against the reference oracle.

``tests/sim/reference_topology.py`` holds ``Topology`` as it was when it
wrapped a frozen ``networkx`` graph.  The live class keeps only its
adjacency and builds a frozen networkx view for the graph algorithms; on
every graph below it must agree with the reference on every public method
and property: same node and neighbour *orders*, same edges, same answers,
same errors (type and message).
"""

import networkx as nx
import pytest

from repro.sim.network import Topology

from tests.sim import reference_topology as reference

NODES = ["a", "b", "c", "d", "e"]
EIGHT = [f"n{i}" for i in range(8)]


def _looped(graph):
    graph.add_edge("a", "a")
    return graph


def _reordered():
    """A graph edited after it was built (an edge removed and put back):
    its neighbour orders are not those of a copy of it."""
    graph = nx.Graph()
    graph.add_edges_from([("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")])
    graph.remove_edge("a", "b")
    graph.add_edge("b", "a")
    return graph


# name -> make(cls); each is called once with each class.
GRAPHS = {
    "complete5": lambda cls: cls.complete(NODES),
    "complete_duplicate": lambda cls: cls.complete(["a", "b", "a", "c"]),
    "complete_one": lambda cls: cls.complete(["solo"]),
    "complete_ints": lambda cls: cls.complete([3, 1, 2, 0]),
    "from_edges_path": lambda cls: cls.from_edges(
        ["a", "b", "c"], [("a", "b"), ("b", "c")]
    ),
    "from_edges_disconnected": lambda cls: cls.from_edges(
        ["x", "y", "z", "w"], [("z", "x"), ("w", "y")]
    ),
    "from_edges_repeated_edge": lambda cls: cls.from_edges(
        NODES, [("c", "a"), ("a", "c"), ("e", "b"), ("b", "d"), ("d", "a")]
    ),
    "from_edges_single": lambda cls: cls.from_edges(["x"], []),
    "ring5": lambda cls: cls.ring(NODES),
    "ring8": lambda cls: cls.ring(EIGHT),
    "harary8_2": lambda cls: cls.k_connected_harary(EIGHT, 2),
    "harary8_3": lambda cls: cls.k_connected_harary(EIGHT, 3),
    "harary9_4": lambda cls: cls.k_connected_harary(
        [f"n{i}" for i in range(9)], 4
    ),
    "harary7_5": lambda cls: cls.k_connected_harary(list("gfedcba"), 5),
    "random10_3_s1": lambda cls: cls.random_with_connectivity(
        [f"n{i}" for i in range(10)], 3, 0.6, seed=1
    ),
    "random8_2_s9": lambda cls: cls.random_with_connectivity(EIGHT, 2, 0.5, seed=9),
    "random8_1_s4": lambda cls: cls.random_with_connectivity(EIGHT, 1, 0.3, seed=4),
    "random6_4_s0": lambda cls: cls.random_with_connectivity(
        list("uvwxyz"), 4, 0.8, seed=0
    ),
    "graph_self_loop": lambda cls: cls(_looped(nx.complete_graph(NODES))),
    "graph_self_loop_ring": lambda cls: cls(_looped(nx.cycle_graph(NODES))),
    "graph_reordered": lambda cls: cls(_reordered()),
}

# Construction that fails must fail the same way.
BAD = {
    "empty_graph": lambda cls: cls(nx.Graph()),
    "complete_empty": lambda cls: cls.complete([]),
    "from_edges_unknown": lambda cls: cls.from_edges(["x"], [("x", "ghost")]),
    "from_edges_self_loop": lambda cls: cls.from_edges(["x", "y"], [("x", "x")]),
    "from_edges_empty": lambda cls: cls.from_edges([], []),
    "harary_k_too_big": lambda cls: cls.k_connected_harary(NODES, 5),
    "harary_k_zero": lambda cls: cls.k_connected_harary(NODES, 0),
    "random_impossible": lambda cls: cls.random_with_connectivity(["a", "b"], 2, 0.9),
    "random_hopeless": lambda cls: cls.random_with_connectivity(
        EIGHT, 4, 0.05, seed=1, max_attempts=5
    ),
    "random_bad_probability": lambda cls: cls.random_with_connectivity(
        ["a", "b", "c"], 1, 1.5
    ),
}


def outcome(call):
    """What *call* returns, or the type and message of what it raises."""
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - the error is the observation
        return ("raise", type(exc).__name__, str(exc))


def observe(topology):
    """Every public answer of *topology*, as comparable values."""
    nodes = topology.nodes
    probes = nodes + ["ghost"]
    graph = topology.graph
    seen = {
        "nodes": nodes,
        "n_nodes": topology.n_nodes,
        "repr": repr(topology),
        "is_complete": topology.is_complete(),
        "links": dict(topology.links),
        "neighbors": {repr(v): outcome(lambda v=v: topology.neighbors(v)) for v in probes},
        "has_edge": {
            (repr(a), repr(b)): topology.has_edge(a, b) for a in probes for b in probes
        },
        "graph_type": type(graph).__name__,
        "graph_frozen": nx.is_frozen(graph),
        "graph_adjacency": [(v, list(adjacent)) for v, adjacent in graph.adjacency()],
        "graph_edges": list(graph.edges),
        "connectivity": outcome(topology.connectivity),
        "vertex_cut": outcome(topology.vertex_cut),
        "supports": {
            (m, u): outcome(lambda m=m, u=u: topology.supports_degradable_agreement(m, u))
            for m in range(3)
            for u in range(m, 4)
        },
    }
    removals = [set(), {nodes[0]}, set(nodes[::2]), set(nodes[1:3]), set(nodes)]
    seen["components_without"] = [
        outcome(lambda r=r: topology.components_without(r)) for r in removals
    ]
    seen["disjoint_paths"] = {
        (repr(s), repr(t), count): outcome(
            lambda s=s, t=t, count=count: topology.disjoint_paths(s, t, count)
        )
        for s in probes
        for t in probes
        for count in sorted({1, 2, 3, 4, len(nodes) - 1} - {0})
    }
    return seen


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_every_public_answer_matches_the_reference(name):
    live = GRAPHS[name](Topology)
    oracle = GRAPHS[name](reference.Topology)
    assert observe(live) == observe(oracle)


@pytest.mark.parametrize("name", sorted(BAD))
def test_construction_errors_match_the_reference(name):
    live = outcome(lambda: BAD[name](Topology))
    oracle = outcome(lambda: BAD[name](reference.Topology))
    assert live[0] == "raise"
    assert live == oracle


def test_random_topologies_match_over_seeds():
    for seed in range(12):
        for floor, p in ((1, 0.35), (2, 0.5), (3, 0.7)):
            live = Topology.random_with_connectivity(EIGHT, floor, p, seed=seed)
            oracle = reference.Topology.random_with_connectivity(
                EIGHT, floor, p, seed=seed
            )
            assert [(v, live.neighbors(v)) for v in live.nodes] == [
                (v, oracle.neighbors(v)) for v in oracle.nodes
            ], (seed, floor, p)
