"""The memoized ``EIGShape`` table: bounded, shared, and stored once.

The table trades memory for time (about 81 KB for one (3,3,10) shape), so
two things are pinned here: the memo never grows past its constant bound,
and every path tuple exists once per shape — the level tuples, the
membership sets and the relay plan all hold the *same* objects.
"""

import asyncio
import sys

import pytest

from repro.core.eig import SHAPE_CACHE_SIZE, EIGShape, EIGTree, eig_shape
from repro.core.protocol import ProtocolSession
from repro.core.spec import DegradableSpec
from repro.serve.gateway import AgreementService

from tests.conftest import node_names


@pytest.fixture
def fresh_cache():
    eig_shape.cache_clear()
    yield eig_shape
    eig_shape.cache_clear()


class TestCacheBound:
    def test_rotating_sender_touches_n_times_n_minus_one_shapes(self, fresh_cache):
        # A service at (2,2,7) whose sender rotates over all nodes, three
        # laps: N * (N - 1) shapes, all built during the first lap.
        spec = DegradableSpec(m=2, u=2, n_nodes=7)
        nodes = node_names(7)

        async def serve():
            after_each_lap = []
            async with AgreementService(
                spec, nodes, round_timeout=2.0, record_trace=False
            ) as service:
                for _lap in range(3):
                    for sender in nodes:
                        outcome = await service.submit_and_wait(sender, "v")
                        assert set(outcome.decisions.values()) == {"v"}
                    after_each_lap.append(fresh_cache.cache_info())
            return after_each_lap

        first, _second, third = asyncio.run(serve())
        assert first.maxsize == SHAPE_CACHE_SIZE
        assert first.misses == first.currsize == 7 * 6 <= SHAPE_CACHE_SIZE
        # Laps two and three built nothing: every instance of a shape
        # shares it, which in a service is every instance.
        assert (third.misses, third.currsize) == (first.misses, first.currsize)
        assert third.hits > first.hits

    def test_processes_of_one_shape_share_one_table(self, fresh_cache):
        spec = DegradableSpec(m=1, u=2, n_nodes=5)
        nodes = node_names(5)
        first = ProtocolSession.byz(spec, nodes, "S", "v")
        second = ProtocolSession.byz(spec, list(nodes), "S", "w")
        for node in nodes[1:]:
            assert first.process_map[node]._shape is second.process_map[node]._shape
        assert fresh_cache.cache_info().currsize == 4

    def test_never_exceeds_the_bound(self, fresh_cache):
        wanted = SHAPE_CACHE_SIZE + 40
        built = 0
        for n_nodes in range(3, 40):
            nodes = tuple(node_names(n_nodes))
            for owner in nodes[1:]:
                eig_shape(nodes, owner, "S", 2)
                built += 1
                assert fresh_cache.cache_info().currsize <= SHAPE_CACHE_SIZE
            if built >= wanted:
                break
        assert built >= wanted
        assert fresh_cache.cache_info().currsize == SHAPE_CACHE_SIZE

    def test_an_evicted_shape_is_rebuilt_equal(self, fresh_cache):
        nodes = tuple(node_names(5))
        before = eig_shape(nodes, "p1", "S", 2)
        fresh_cache.cache_clear()
        after = eig_shape(nodes, "p1", "S", 2)
        assert after is not before
        assert after.levels == before.levels and after.relay == before.relay


class TestStoredOnce:
    """(3,3,10), one sender: 9 shapes of 401 paths each."""

    NODES = tuple(node_names(10))
    DEPTH = 4

    def shape(self, owner="p1"):
        return EIGShape(self.NODES, owner, "S", self.DEPTH)

    def test_level_sizes(self):
        shape = self.shape()
        assert [len(level) for level in shape.levels] == [0, 1, 8, 56, 336]
        assert shape.expected is shape.levels
        assert [len(plan) for plan in shape.relay] == [0, 1, 8, 56]

    def test_path_tuples_are_shared_not_copied(self):
        shape = self.shape()
        for length in range(1, self.DEPTH + 1):
            level = shape.levels[length]
            by_value = {path: path for path in level}
            # The set holds the level's own tuples ...
            assert all(member is by_value[member] for member in shape.members[length])
            assert len(shape.members[length]) == len(level)
            # ... and so does the relay plan (there is none for the leaves).
            if length < self.DEPTH:
                assert all(
                    path is by_value[path] for path, _ext, _dests in shape.relay[length]
                )
                assert len(shape.relay[length]) == len(level)

    def test_distinct_objects_and_bytes_per_shape(self):
        shape = self.shape()
        paths = [p for level in shape.levels for p in level]
        extras = [
            part for plan in shape.relay for _path, ext, dests in plan for part in (ext, dests)
        ]
        held = (  # index 0 of each table is the shared empty placeholder
            paths + extras + list(shape.levels[1:]) + list(shape.members[1:])
            + list(shape.relay[1:]) + [entry for plan in shape.relay for entry in plan]
        )
        assert len({id(obj) for obj in held}) == len(held)  # nothing held twice
        assert len(paths) == 401 and len(extras) == 2 * 65
        # 81 KB when this was written; a second copy of the path tuples
        # (a child table, a sorted copy of each level) would add 30 KB+.
        assert sum(sys.getsizeof(obj) for obj in held) < 100 * 1024

    def test_trees_hold_values_only(self):
        # The tree itself no longer owns any structure: two trees of one
        # shape enumerate the very same tuples.
        first = EIGTree("p1", self.NODES, self.DEPTH)
        second = EIGTree("p1", self.NODES, self.DEPTH)
        assert all(
            a is b
            for a, b in zip(first.expected_paths(4, "S"), second.expected_paths(4, "S"))
        )
