"""The max-flow / min-cut helper every exact check in tvclust runs on."""

import itertools

import numpy as np
import pytest

from tvclust.analysis import CapacityRangeError, min_cut


def all_cut_capacities(num_nodes, arcs, source, sink):
    """Capacity of every s-t cut, by enumerating all node bipartitions."""
    others = [v for v in range(num_nodes) if v not in (source, sink)]
    caps = []
    for r in range(len(others) + 1):
        for chosen in itertools.combinations(others, r):
            side = {source, *chosen}
            caps.append(sum(c for u, v, c in arcs if u in side and v not in side))
    return caps


def brute_force_min_cut(num_nodes, arcs, source, sink):
    return min(all_cut_capacities(num_nodes, arcs, source, sink))


def min_cut_of(num_nodes, arcs, source, sink):
    """min_cut on a list of (tail, head, capacity) arcs."""
    tails, heads, caps = (np.array(col, dtype=np.int64) for col in zip(*arcs))
    return min_cut(num_nodes, tails, heads, caps, source, sink)


def side_set(mask):
    return set(np.flatnonzero(mask).tolist())


def random_arcs(rng, n, p, max_cap):
    return [
        (u, v, int(rng.integers(1, max_cap)))
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]


class TestMaxFlow:
    def test_single_arc(self):
        assert min_cut_of(2, [(0, 1, 5)], 0, 1)[0] == 5

    def test_two_disjoint_paths(self):
        arcs = [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)]
        assert min_cut_of(4, arcs, 0, 3)[0] == 2

    def test_bottleneck(self):
        assert min_cut_of(4, [(0, 1, 10), (1, 2, 3), (2, 3, 10)], 0, 3)[0] == 3

    def test_classic_textbook_network(self):
        # s=0, t=5: known max flow 23
        arcs = [
            (0, 1, 16), (0, 2, 13), (1, 2, 10), (2, 1, 4), (1, 3, 12),
            (3, 2, 9), (2, 4, 14), (4, 3, 7), (3, 5, 20), (4, 5, 4),
        ]
        assert min_cut_of(6, arcs, 0, 5)[0] == 23

    def test_no_path(self):
        value, side, unique = min_cut_of(3, [(0, 1, 4)], 0, 2)
        assert value == 0
        assert side_set(side) == {0, 1}
        assert unique  # cutting 0 -> 1 would cost 4

    def test_parallel_arcs_add(self):
        assert min_cut_of(2, [(0, 1, 2), (0, 1, 3)], 0, 1)[0] == 5

    def test_against_cut_enumeration(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            n = int(rng.integers(3, 8))
            arcs = random_arcs(rng, n, 0.4, 8) or [(0, 1, 1)]
            expected = brute_force_min_cut(n, arcs, 0, n - 1)
            assert min_cut_of(n, arcs, 0, n - 1)[0] == expected


class TestMinCut:
    def test_cut_value_and_side(self):
        value, side, unique = min_cut_of(4, [(0, 1, 2), (1, 2, 1), (2, 3, 2)], 0, 3)
        assert value == 1
        assert side_set(side) == {0, 1}
        assert unique

    def test_cut_capacity_equals_flow(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            arcs = random_arcs(rng, n, 0.35, 6) or [(0, 1, 1)]
            value, side, _ = min_cut_of(n, arcs, 0, n - 1)
            inside = side_set(side)
            assert 0 in inside and n - 1 not in inside
            cut_cap = sum(c for u, v, c in arcs if u in inside and v not in inside)
            assert cut_cap == value

    def test_uniqueness_against_enumeration(self):
        rng = np.random.default_rng(8)
        both = {True: 0, False: 0}
        for _ in range(80):
            n = int(rng.integers(3, 8))
            arcs = random_arcs(rng, n, 0.4, 4) or [(0, 1, 1)]
            value, _, unique = min_cut_of(n, arcs, 0, n - 1)
            caps = all_cut_capacities(n, arcs, 0, n - 1)
            assert unique == (caps.count(value) == 1)
            both[unique] += 1
        assert both[True] and both[False]

    def test_non_unique_cut_detected(self):
        # two serial unit arcs: either one is a minimum cut
        value, _, unique = min_cut_of(3, [(0, 1, 1), (1, 2, 1)], 0, 2)
        assert value == 1
        assert not unique

    def test_infinite_capacity_never_cut(self):
        inf = 3 + 1  # above the total of the finite capacities
        arcs = [(0, 1, inf), (1, 2, 1), (2, 3, inf), (0, 2, 1), (1, 3, 1)]
        value, side, unique = min_cut_of(4, arcs, 0, 3)
        assert value == 3
        assert side_set(side) == {0, 1}
        assert unique

    def test_capacity_beyond_int32_rejected(self):
        with pytest.raises(CapacityRangeError):
            min_cut_of(2, [(0, 1, 2**31)], 0, 1)
        with pytest.raises(CapacityRangeError):
            min_cut_of(2, [(0, 1, -1)], 0, 1)
