"""Unit tests for the disjoint-path relay transport."""

import pytest

from repro.core.values import DEFAULT
from repro.exceptions import ConfigurationError, RoutingError
from repro.sim.network import Topology
from repro.sim.routing import (
    RoutedTransport,
    constant_corruptor,
    silent_corruptor,
)

NODES = [f"n{i}" for i in range(8)]


def harary(k):
    return Topology.k_connected_harary(NODES, k)


class TestValidation:
    def test_n_paths_positive(self):
        with pytest.raises(ConfigurationError):
            RoutedTransport(harary(4), n_paths=0, accept_threshold=1)

    def test_threshold_in_range(self):
        with pytest.raises(ConfigurationError):
            RoutedTransport(harary(4), n_paths=3, accept_threshold=4)
        with pytest.raises(ConfigurationError):
            RoutedTransport(harary(4), n_paths=3, accept_threshold=0)

    def test_for_spec(self):
        t = RoutedTransport.for_spec(harary(4), m=1, u=2)
        assert t.n_paths == 4
        assert t.accept_threshold == 3


class TestFaultFreeDelivery:
    def test_value_arrives(self):
        t = RoutedTransport(harary(4), n_paths=4, accept_threshold=3)
        assert t((), "n0", "n4", "v") == "v"

    def test_all_pairs(self):
        t = RoutedTransport(harary(3), n_paths=3, accept_threshold=2)
        for a in NODES:
            for b in NODES:
                if a != b:
                    assert t((), a, b, "v") == "v"

    def test_route_cache(self):
        t = RoutedTransport(harary(4), n_paths=4, accept_threshold=3)
        t((), "n0", "n4", "v")
        routes_first = t._route_cache[("n0", "n4")]
        t((), "n0", "n4", "w")
        assert t._route_cache[("n0", "n4")] is routes_first

    def test_verify_feasible(self):
        t = RoutedTransport(harary(4), n_paths=4, accept_threshold=3)
        t.verify_feasible(NODES)  # must not raise

    def test_verify_feasible_fails_on_sparse(self):
        t = RoutedTransport(harary(3), n_paths=4, accept_threshold=3)
        with pytest.raises(RoutingError):
            t.verify_feasible(NODES)


class TestCorruption:
    def test_below_threshold_corruption_is_masked(self):
        # k=4 paths, threshold 3: one corrupting hop cannot win.
        topo = harary(4)
        t = RoutedTransport(
            topo,
            n_paths=4,
            accept_threshold=3,
            hop_corruptors={"n1": constant_corruptor("bad")},
        )
        value = t((), "n0", "n4", "v")
        assert value in ("v", DEFAULT)
        # At most one of the 4 disjoint paths crosses n1, so "v" keeps 3.
        assert value == "v"

    def test_heavy_corruption_degrades_to_default_not_garbage(self):
        # With threshold u+1 and at most u corrupting hops, a fabricated
        # value can never be accepted.
        topo = harary(4)
        corruptors = {
            n: constant_corruptor("bad") for n in ("n1", "n7")
        }
        t = RoutedTransport(topo, n_paths=4, accept_threshold=3, hop_corruptors=corruptors)
        for dest in NODES[2:7]:
            assert t((), "n0", dest, "v") in ("v", DEFAULT)

    def test_swallowed_copies(self):
        topo = harary(4)
        t = RoutedTransport(
            topo,
            n_paths=4,
            accept_threshold=3,
            hop_corruptors={"n1": silent_corruptor()},
        )
        assert t((), "n0", "n4", "v") in ("v", DEFAULT)
        # counters updated
        assert t.copies_sent >= 4

    def test_endpoints_never_corrupt(self):
        # Corruptors on source/destination don't apply (only interior hops).
        topo = harary(4)
        t = RoutedTransport(
            topo,
            n_paths=4,
            accept_threshold=3,
            hop_corruptors={
                "n0": constant_corruptor("bad"),
                "n4": constant_corruptor("bad"),
            },
        )
        assert t((), "n0", "n4", "v") == "v"


class TestTheorem3Mechanics:
    """The quantitative core of the Theorem 3 experiment."""

    def test_sufficient_connectivity_reliable_under_m_faults(self):
        m, u = 1, 2
        topo = Topology.k_connected_harary(NODES, m + u + 1)
        corruptors = {"n1": constant_corruptor("bad")}  # |F| = m
        t = RoutedTransport.for_spec(topo, m, u, corruptors)
        for dest in NODES[2:]:
            assert t((), "n0", dest, "v") == "v"

    def test_sufficient_connectivity_safe_under_u_faults(self):
        m, u = 1, 2
        topo = Topology.k_connected_harary(NODES, m + u + 1)
        corruptors = {
            n: constant_corruptor("bad") for n in ("n1", "n7")
        }  # |F| = u
        t = RoutedTransport.for_spec(topo, m, u, corruptors)
        for dest in NODES[2:7]:
            assert t((), "n0", dest, "v") in ("v", DEFAULT)

    def test_insufficient_connectivity_breaks_reliability(self):
        # At connectivity m+u, the u+1 threshold can starve even honest
        # values once the m cut nodes corrupt their copies.
        m, u = 1, 2
        topo = Topology.k_connected_harary(NODES, m + u)
        neighbours = sorted(topo.neighbors("n0"), key=str)
        corruptors = {neighbours[0]: constant_corruptor("bad")}
        t = RoutedTransport(
            topo, n_paths=m + u, accept_threshold=u + 1, hop_corruptors=corruptors
        )
        results = {dest: t((), "n0", dest, "v") for dest in NODES[1:]}
        assert any(v is DEFAULT for v in results.values())
