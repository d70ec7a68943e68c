import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import cluster_view, random_graph
from tvclust import analysis, graphs
from tvclust.analysis import (
    OracleInputError,
    algebraic_connectivity,
    analyze_instance,
    boundary_concentration_bound,
    format_analysis_text,
    mincut_tv_oracle,
    recovery_condition_report,
    spectral_concentration_bound,
    spectral_cut_bound_check,
    subset_cut_check,
    well_connected,
    write_analysis_csv,
)
from tvclust.clustering import accuracy, cluster
from tvclust.graphs import (
    Partition,
    PartitionError,
    build_graph,
    contiguous_partition,
    laplacian,
    total_variation,
)
from tvclust.sbm import SbmParams, SeedSet, SbmInstance, generate, generate_instance
from tvclust.solver import SeedValuesError, SolverConfig


ROOT = Path(__file__).resolve().parents[1]


def brute_force_min_tv(g, seeds):
    """Minimum TV over all binary completions, by exhaustive enumeration."""
    free = [i for i in range(g.num_nodes) if i not in seeds]
    x = np.zeros(g.num_nodes)
    for node, value in seeds.items():
        x[node] = value
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=len(free)):
        x[free] = bits
        tv = total_variation(g, x)
        best = tv if best is None else min(best, tv)
    return best


def hoffman_condition_holds(num_nodes, arcs):
    """Hoffman's condition checked by enumerating every node subset."""
    for r in range(1, num_nodes):
        for subset in itertools.combinations(range(num_nodes), r):
            inside = set(subset)
            lo_in = sum(lo for u, v, lo, hi in arcs if u not in inside and v in inside)
            hi_out = sum(hi for u, v, lo, hi in arcs if u in inside and v not in inside)
            if lo_in > hi_out:
                return False
    return True


def well_connected_by_patterns(g, p, k, labeled_node):
    """Every +-2 pattern on the boundary less the labeled node is a circulation.

    Cluster k's nodes plus an auxiliary node t: unit arcs both ways on every
    intra-cluster edge, free arcs between t and the labeled node, and for
    each other boundary node b a forced flow of 2 along t -> b (+2) or
    b -> t (-2).  Each pattern is decided by Hoffman's subset condition.
    """
    members, edges, boundary, _ = cluster_view(g, p, k)
    labeled = members.index(labeled_node)
    forced = [b for b in boundary if b != labeled]
    t = len(members)
    free = 2 * len(edges) + 2 * len(forced) + 1
    base = [(u, v, 0, 1) for u, v in edges]
    base += [(v, u, 0, 1) for u, v in edges]
    base += [(labeled, t, 0, free), (t, labeled, 0, free)]
    for signs in itertools.product((1, -1), repeat=len(forced)):
        arcs = base + [
            (t, b, 2, 2) if sign > 0 else (b, t, 2, 2)
            for sign, b in zip(signs, forced)
        ]
        if not hoffman_condition_holds(t + 1, arcs):
            return False
    return True


def subset_cuts_by_enumeration(g, p, k, labeled_node):
    """Both subset-cut verdicts by enumerating all 2^n subsets of cluster k.

    Returns (per-subset, uniform): cut(S) >= 2|S & B| for every nonempty
    proper S, and cut(S) >= 2|B| for every nonempty S avoiding the labeled
    node, with B the boundary nodes of cluster k.
    """
    members, edges, boundary, _ = cluster_view(g, p, k)
    labeled = members.index(int(labeled_node))
    subsets = np.arange(1, (1 << len(members)) - 1, dtype=np.int64)
    cut = np.zeros(subsets.size, dtype=np.int64)
    for u, v in edges:
        cut += ((subsets >> u) ^ (subsets >> v)) & 1
    in_boundary = np.zeros(subsets.size, dtype=np.int64)
    for b in boundary:
        in_boundary += (subsets >> b) & 1
    avoids_labeled = ((subsets >> labeled) & 1) == 0
    return (
        bool((cut >= 2 * in_boundary).all()),
        bool((cut[avoids_labeled] >= 2 * len(boundary)).all()),
    )


def two_halves_cluster(rng, bottleneck):
    """Cluster 1 of two dense halves joined by a few edges; node n is outside.

    Up to two nodes per half are wired to the outside node and so form the
    boundary.  A `bottleneck` draw has one boundary node per half, halves
    of 5-6 nearly complete nodes and two or three cross edges: the
    per-subset condition can then hold while the uniform one fails.
    """
    n = int(rng.integers(10, 14)) if bottleneck else int(rng.integers(1, 14))
    half = n // 2 if bottleneck else int(rng.integers(0, n + 1))
    side = np.arange(n) < half
    iu, ju = np.triu_indices(n, k=1)
    same = side[iu] == side[ju]
    p_same = 0.95 if bottleneck else rng.choice([0.5, 0.8, 1.0])
    keep = same & (rng.random(iu.size) < p_same)
    cross = np.flatnonzero(~same)
    num_cross = int(rng.integers(2, 4)) if bottleneck else int(rng.integers(0, 6))
    keep[rng.choice(cross, size=min(cross.size, num_cross), replace=False)] = True
    per_half = 1 if bottleneck else int(rng.integers(0, 3))
    boundary = [
        int(b)
        for part in (np.flatnonzero(side), np.flatnonzero(~side))
        for b in rng.choice(part, size=min(part.size, per_half), replace=False)
    ]
    edges = np.column_stack([iu[keep], ju[keep]]).tolist()
    edges += [(b, n) for b in boundary]
    return build_graph(n + 1, edges), Partition(np.array([1] * n + [2]), 2)


def random_instance(rng, max_size):
    """An SBM instance of 2-3 clusters of 3..max_size nodes with S >= 2."""
    sizes = tuple(int(x) for x in rng.integers(3, max_size + 1, size=rng.integers(2, 4)))
    params = SbmParams(
        sizes, float(rng.choice([0.6, 0.8, 0.95])), float(rng.choice([0.05, 0.1, 0.2]))
    )
    s = int(rng.integers(2, min(sizes) + 1))
    return generate_instance(params, s, rng_seed=int(rng.integers(2**63)))


def many_cluster_instance(rng):
    """An SBM instance of 3-4 clusters of 4..14 nodes, S = 2: boundary sizes,
    hence demands, differ across clusters."""
    sizes = tuple(int(x) for x in rng.integers(4, 15, size=rng.integers(3, 5)))
    params = SbmParams(sizes, float(rng.choice([0.7, 0.9])), float(rng.choice([0.03, 0.1])))
    return generate_instance(params, 2, rng_seed=int(rng.integers(2**63)))


def counted_flows(monkeypatch) -> list:
    """Record (nodes, arcs) of every certificate max-flow from now on."""
    calls = []
    real = analysis._max_flow

    def counted(num_nodes, tails, *args):
        calls.append((num_nodes, len(tails)))
        return real(num_nodes, tails, *args)

    monkeypatch.setattr(analysis, "_max_flow", counted)
    return calls


def complete_graph(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestOracle:
    def test_bridge_graph(self, bridge_graph):
        res = mincut_tv_oracle(bridge_graph, {0: 1.0, 7: 0.0})
        assert res.optimal_tv == 1
        assert_array_equal(res.signal, [1, 1, 1, 1, 0, 0, 0, 0])
        assert res.cut_unique
        assert brute_force_min_tv(bridge_graph, {0: 1.0, 7: 0.0}) == 1.0

    def test_same_value_seeds(self, bridge_graph):
        res = mincut_tv_oracle(bridge_graph, {0: 1.0, 3: 1.0})
        assert res.optimal_tv == 0
        assert_array_equal(res.signal, np.ones(8))

    def test_disjoint_triangles(self):
        g = build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        res = mincut_tv_oracle(g, {0: 1.0, 3: 0.0})
        assert res.optimal_tv == 0
        assert_array_equal(res.signal[:3], np.ones(3))
        assert_array_equal(res.signal[3:], np.zeros(3))

    def test_non_binary_rejected(self, bridge_graph):
        with pytest.raises(OracleInputError):
            mincut_tv_oracle(bridge_graph, {0: 0.5})

    @pytest.mark.parametrize(
        "seeds, message",
        [({4: 1.0, 0: 0.0}, "outside 0..3"), ({5: 1.0, 3: 0.0}, "outside 0..3"),
         ({1.5: 1.0, 0: 0.0}, "must be integers, got 1.5"),
         ({10: 1.0, 0: 0.0}, "outside 0..3")],
        ids=["source_id", "sink_id", "fraction", "far_past_last"],
    )
    def test_seed_ids_checked(self, seeds, message):
        # 4 and 5 used to be read as the super-source and super-sink (TV 0
        # and 7 on the path), 1.5 as node 1, and 10 failed inside scipy
        path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(SeedValuesError, match=message):
            mincut_tv_oracle(path, seeds)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(3, 11))
            g = random_graph(rng, n, 0.45)
            k = int(rng.integers(2, min(n, 4) + 1))
            nodes = rng.choice(n, size=k, replace=False)
            seeds = {int(i): float(rng.integers(0, 2)) for i in nodes}
            res = mincut_tv_oracle(g, seeds)
            assert res.optimal_tv == brute_force_min_tv(g, seeds)
            # the returned signal is itself an optimal completion
            x = res.signal.copy()
            assert all(x[i] == v for i, v in seeds.items())
            assert total_variation(g, x) == res.optimal_tv

    def test_long_path(self):
        # one augmenting path through every node; no recursion limit applies
        n = 100_000
        g = build_graph(n, np.column_stack([np.arange(n - 1), np.arange(1, n)]))
        res = mincut_tv_oracle(g, {0: 1.0, n - 1: 0.0})
        assert res.optimal_tv == 1
        assert res.cut_unique is False
        assert_array_equal(np.flatnonzero(res.signal), [0])

    def test_uniqueness_flag(self):
        # path 0-1-2 with ends seeded: both internal edges are minimum cuts
        g = build_graph(3, [(0, 1), (1, 2)])
        assert not mincut_tv_oracle(g, {0: 1.0, 2: 0.0}).cut_unique
        # K4 with opposite seeds: isolating either seed costs 3 -> not unique
        res = mincut_tv_oracle(complete_graph(4), {0: 1.0, 3: 0.0})
        assert res.optimal_tv == 3
        assert not res.cut_unique
        # two K5 blocks joined by 3 cross edges: only the block split costs 3
        # (isolating any single node costs at least its intra-degree of 4)
        block = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        edges = block + [(i + 5, j + 5) for i, j in block]
        edges += [(0, 5), (1, 6), (2, 7)]
        g3 = build_graph(10, edges)
        res = mincut_tv_oracle(g3, {0: 1.0, 9: 0.0})
        assert res.optimal_tv == 3
        assert res.cut_unique
        assert_array_equal(res.signal, [1] * 5 + [0] * 5)


class TestAlgebraicConnectivity:
    def test_complete_graphs(self):
        for n in (3, 5, 50):
            lam = algebraic_connectivity(laplacian(complete_graph(n)))
            assert abs(lam - n) < 1e-8 * n

    def test_path_three_nodes(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert abs(algebraic_connectivity(laplacian(g)) - 1.0) < 1e-10

    def test_disconnected_exactly_zero(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert algebraic_connectivity(laplacian(g)) == 0.0

    def test_single_node(self):
        g = build_graph(1, [])
        assert spectral_cut_bound_check(g, 0, n_total=1).lambda2 == 0.0

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            algebraic_connectivity(np.array([[1.0, 0.5], [-1.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_non_square_rejected_by_shape(self, shape):
        # (2, 3) used to fail in the symmetry test with numpy's broadcast error
        with pytest.raises(ValueError, match="Laplacian must be square"):
            algebraic_connectivity(np.zeros(shape))

    def test_iterative_path_matches_dense(self, monkeypatch):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 40, 0.2)
        dense = spectral_cut_bound_check(g, 0, n_total=80).lambda2
        # above the cap the check builds a sparse Laplacian and runs Lanczos
        monkeypatch.setattr(analysis, "DENSE_CAP", 10)
        monkeypatch.setattr(analysis, "laplacian", None)
        iterative = spectral_cut_bound_check(g, 0, n_total=80).lambda2
        assert abs(dense - iterative) <= 1e-8 * max(1.0, dense)

    def test_disjoint_union_zero(self):
        g = build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert spectral_cut_bound_check(g, 0, n_total=6).lambda2 == 0.0

    def test_iterative_path_reproducible_across_processes(self):
        # above DENSE_CAP, Lanczos from ARPACK's random start gave lambda2
        # digits that differed from run to run; each fresh process must
        # print the same digits
        script = (
            "import numpy as np\n"
            "from tvclust.analysis import spectral_cut_bound_check\n"
            "from tvclust.graphs import build_graph\n"
            "rng, n = np.random.default_rng(5), 2100\n"
            "ring = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])\n"
            "pairs = np.sort(np.vstack([ring, rng.integers(0, n, (3 * n, 2))]), 1)\n"
            "pairs = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)\n"
            "print(repr(spectral_cut_bound_check(build_graph(n, pairs), 0, n).lambda2))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        printed = [
            subprocess.run([sys.executable, "-c", script], env=env, check=True,
                           capture_output=True, text=True).stdout
            for _ in range(2)
        ]
        assert printed[0] == printed[1] and float(printed[0]) > 0


class TestSpectralCutBound:
    def test_complete_cluster_holds(self):
        bound = spectral_cut_bound_check(complete_graph(50), 1, n_total=100)
        assert_allclose(bound.lhs, 0.99 * 50)
        assert bound.rhs == 2.0
        assert bound.holds

    def test_zero_boundary_always_holds(self):
        g = build_graph(2, [(0, 1)])
        assert spectral_cut_bound_check(g, 0, n_total=10).holds

    def test_disconnected_cluster_fails(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        bound = spectral_cut_bound_check(g, 1, n_total=8)
        assert bound.lambda2 == 0.0
        assert not bound.holds


class TestSubsetCut:
    def test_bridge_cluster_one(self, bridge_graph, bridge_partition):
        res = subset_cut_check(bridge_graph, bridge_partition, 1, labeled_node=0)
        assert res.per_subset_holds
        assert res.uniform_holds

    def test_bridge_cluster_two(self, bridge_graph, bridge_partition):
        res = subset_cut_check(bridge_graph, bridge_partition, 2, labeled_node=7)
        assert res.per_subset_holds
        assert res.uniform_holds

    def test_single_intra_edge_fails(self):
        # cluster {0, 1} is one edge; boundary node 1 has intra-degree 1
        g = build_graph(3, [(0, 1), (1, 2)])
        p = Partition(np.array([1, 1, 2]), 2)
        res = subset_cut_check(g, p, 1, labeled_node=0)
        assert not res.per_subset_holds

    def test_empty_boundary_vacuous(self):
        g = build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        p = Partition(np.array([1, 1, 1, 2, 2]), 2)
        res = subset_cut_check(g, p, 1, labeled_node=0)
        assert res.per_subset_holds

    def test_singleton_cluster(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        p = Partition(np.array([1, 2, 2]), 2)
        res = subset_cut_check(g, p, 1, labeled_node=0)
        assert res.per_subset_holds and res.uniform_holds

    def test_long_path_cluster(self):
        # 25 path nodes, boundary node 24: cut({24}) = 1 < 2 and the path's
        # edge connectivity 1 < 2|B| = 2
        g = build_graph(30, [(i, i + 1) for i in range(29)])
        p = Partition(np.array([1] * 25 + [2] * 5), 2)
        res = subset_cut_check(g, p, 1, labeled_node=0)
        assert (res.per_subset_holds, res.uniform_holds) == (False, False)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        verdicts = Counter()
        for trial in range(320):
            g, p = two_halves_cluster(rng, bottleneck=trial % 4 == 0)
            members = p.nodes_in(1)
            labeled = int(rng.choice(members))
            want = subset_cuts_by_enumeration(g, p, 1, labeled)
            res = subset_cut_check(g, p, 1, labeled)
            assert (res.per_subset_holds, res.uniform_holds) == want
            if trial % 2 == 0:
                # the uniform verdict is the cluster's edge connectivity,
                # whichever node is labeled
                for other in members:
                    res = subset_cut_check(g, p, 1, int(other))
                    assert res.uniform_holds == want[1]
            verdicts[want] += 1
        for condition in (0, 1):
            for verdict in (True, False):
                count = sum(c for w, c in verdicts.items() if w[condition] == verdict)
                assert count >= 10
        assert verdicts[True, False] >= 10

    def test_chunked_flows_agree(self, monkeypatch):
        rng = np.random.default_rng(9)
        draws = [two_halves_cluster(rng, bottleneck=t % 2 == 0) for t in range(40)]
        instances = [random_instance(rng, max_size=12) for _ in range(30)]
        instances += [many_cluster_instance(rng) for _ in range(30)]

        def decide_all():
            cuts = [subset_cut_check(g, p, 1, int(p.nodes_in(1)[0])) for g, p in draws]
            return cuts, [analyze_instance(inst) for inst in instances]

        flows = counted_flows(monkeypatch)
        # every copy alone in its flow: no copy's value can be misread
        monkeypatch.setattr(analysis, "FLOW_ARC_CHUNK", 1)
        alone = decide_all()
        assert {r.per_subset_holds for r in alone[0]} == {True, False}
        assert {r.uniform_holds for r in alone[0]} == {True, False}
        # clusters whose seeds disagree, so a verdict read off the wrong
        # copy of a shared flow shows
        mixed = [
            row for report in alone[1] for row in report.clusters
            if len({flag for _, flag in row.wellconnected_by_seed}) == 2
        ]
        assert len(mixed) >= 10
        # 3-4 clusters with at least three boundary sizes in one instance
        demands = [
            len({row.boundary_node_count for row in report.clusters})
            for report in alone[1][30:]
        ]
        assert sum(d >= 3 for d in demands) >= 10
        bounded = sum(len(cluster_view(g, p, 1)[2]) > 0 for g, p in draws) + sum(
            any(row.boundary_node_count for row in report.clusters)
            for report in alone[1]
        )
        assert bounded >= 80
        # a handful of copies per flow, then every cluster's in one flow
        for budget in (50, 200, 1 << 16, 1 << 30):
            monkeypatch.setattr(analysis, "FLOW_ARC_CHUNK", budget)
            flows.clear()
            assert decide_all() == alone
            if budget >= 1 << 16:
                # one flow per check with a boundary (no boundary, no flow)
                assert len(flows) == bounded

    def test_labeled_node_must_belong(self, bridge_graph, bridge_partition):
        # 7 is in cluster 2; -1 would wrap to node 7; 8 is past the last
        # node; 5.0 and "0" are not integer ids
        for check in (subset_cut_check, well_connected):
            for node in (7, -1, 8, 5.0, "0"):
                with pytest.raises(ValueError, match="is not in cluster 1"):
                    check(bridge_graph, bridge_partition, 1, labeled_node=node)
            assert check(bridge_graph, bridge_partition, 1, labeled_node=np.int64(3))


class TestWellConnected:
    def test_bridge_graph_both_clusters(self, bridge_graph, bridge_partition):
        assert well_connected(bridge_graph, bridge_partition, 1, labeled_node=0)
        assert well_connected(bridge_graph, bridge_partition, 2, labeled_node=7)

    def test_empty_boundary_vacuous(self):
        g = build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        p = Partition(np.array([1, 1, 1, 2, 2]), 2)
        assert well_connected(g, p, 1, labeled_node=0)

    def test_single_intra_edge_infeasible(self):
        # weight 2 cannot traverse the single unit-capacity intra edge
        g = build_graph(3, [(0, 1), (1, 2)])
        p = Partition(np.array([1, 1, 2]), 2)
        assert not well_connected(g, p, 1, labeled_node=0)

    def test_labeled_boundary_node_unconstrained(self):
        # the labeled node IS the only boundary node: nothing is forced
        g = build_graph(3, [(0, 1), (1, 2)])
        p = Partition(np.array([1, 1, 2]), 2)
        assert well_connected(g, p, 1, labeled_node=1)

    def test_large_boundary_decided(self):
        # 18 boundary nodes, no enumeration: the 17 others would send 34
        # units into the labeled node, whose 17 intra-cluster edges carry 17
        g = complete_graph(20)
        p = contiguous_partition([18, 2])
        assert not well_connected(g, p, 1, labeled_node=0)

    def test_matches_pattern_enumeration(self):
        # Hoffman's condition on every +-2 pattern against the one flow
        rng = np.random.default_rng(41)
        verdicts = {True: 0, False: 0}
        for _ in range(100):
            sizes = (int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            g, p = generate(
                SbmParams(sizes, 0.8, 0.15), rng_seed=int(rng.integers(2**63))
            )
            for k in (1, 2):
                labeled = int(rng.choice(p.nodes_in(k)))
                got = well_connected(g, p, k, labeled)
                assert got == well_connected_by_patterns(g, p, k, labeled)
                verdicts[got] += 1
        assert verdicts[True] >= 20 and verdicts[False] >= 20

    def test_subset_condition_implies_well_connected(self):
        # empirical direction of the sufficient-condition result, exercised
        # on block-structured draws where small boundaries actually occur
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(60):
            n1 = int(rng.integers(3, 9))
            n2 = int(rng.integers(3, 9))
            g, p = generate(
                SbmParams((n1, n2), 0.85, 0.08), rng_seed=int(rng.integers(2**63))
            )
            for k in (1, 2):
                labeled = int(p.nodes_in(k)[0])
                res = subset_cut_check(g, p, k, labeled)
                if res.per_subset_holds:
                    assert well_connected(g, p, k, labeled)
                    checked += 1
        assert checked > 30
        # cluster sizes 23-40, past the reach of subset enumeration
        verdicts = set()
        for _ in range(30):
            n1 = int(rng.integers(23, 41))
            g, p = generate(
                SbmParams((n1, 20), 0.8, float(rng.choice([0.002, 0.02]))),
                rng_seed=int(rng.integers(2**63)),
            )
            labeled = int(p.nodes_in(1)[0])
            res = subset_cut_check(g, p, 1, labeled)
            if res.per_subset_holds:
                assert well_connected(g, p, 1, labeled)
            verdicts.add(res.per_subset_holds)
        assert verdicts == {True, False}

    def test_per_subset_iff_every_node_well_connected(self):
        # per-subset copy v is the flow of well_connected(v)
        rng = np.random.default_rng(61)
        verdicts = Counter()
        for trial in range(60):
            n1 = int(rng.integers(23, 41)) if trial % 3 == 0 else int(rng.integers(2, 12))
            g, p = generate(
                SbmParams((n1, 20), 0.8, float(rng.choice([0.002, 0.02, 0.1]))),
                rng_seed=int(rng.integers(2**63)),
            )
            members = p.nodes_in(1)
            res = subset_cut_check(g, p, 1, int(rng.choice(members)))
            every = all(well_connected(g, p, 1, int(v)) for v in members)
            assert res.per_subset_holds == every
            verdicts[n1 >= 23, every] += 1
        assert all(verdicts[large, v] >= 3 for large in (True, False) for v in (True, False))

    def test_certified_instances_recover_exactly(self):
        # when every cluster's single seed is certified, assignment is exact
        rng = np.random.default_rng(77)
        certified = 0
        for trial in range(30):
            n1 = int(rng.integers(4, 9))
            n2 = int(rng.integers(4, 9))
            inst = generate_instance(
                SbmParams((n1, n2), 0.9, 0.06), s=1, rng_seed=int(rng.integers(2**63))
            )
            seeds = [group[0] for group in inst.seeds.per_cluster]
            flags = [
                well_connected(inst.graph, inst.truth, k, seeds[k - 1])
                for k in (1, 2)
            ]
            if all(flags):
                certified += 1
                result = cluster(
                    inst.graph, inst.seeds.labels(), SolverConfig(max_iters=2000)
                )
                assert accuracy(result, inst.truth, inst.seeds) == 1.0
        assert certified >= 5


class TestBounds:
    def test_boundary_bound_values(self):
        assert boundary_concentration_bound(50, 100, 0.0, 0.1) == 1.0
        assert abs(
            boundary_concentration_bound(50, 100, 0.01, 0.1) - math.exp(-2.5)
        ) < 1e-15
        assert boundary_concentration_bound(50, 100, 0.01, 1e9) < 1e-300

    def test_boundary_bound_monotone(self):
        alphas = [0.05, 0.1, 0.2, 0.5]
        vals = [boundary_concentration_bound(50, 100, 0.01, a) for a in alphas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        pouts = [0.005, 0.01, 0.05, 0.2]
        vals = [boundary_concentration_bound(50, 100, p, 0.1) for p in pouts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_boundary_bound_validation(self):
        with pytest.raises(ValueError):
            boundary_concentration_bound(50, 100, 1.5, 0.1)
        with pytest.raises(ValueError):
            boundary_concentration_bound(50, 100, 0.1, 0.0)

    def test_spectral_bound_values(self):
        assert spectral_concentration_bound(1, 0.7) == 0.0
        assert abs(spectral_concentration_bound(50, 1.0) - 49 * 0.9**25) < 1e-12
        assert spectral_concentration_bound(50, 0.0) == 49.0

    def test_spectral_bound_monotone_in_p_in(self):
        ps = [0.1, 0.3, 0.6, 1.0]
        vals = [spectral_concentration_bound(40, p) for p in ps]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestRecoveryConditionReport:
    def test_reference_setup(self):
        report = recovery_condition_report(
            SbmParams((50, 50), 0.5, 0.025), s=5, alpha=0.1, beta=1e-3
        )
        for row in report.clusters:
            assert_allclose(row.condition_lhs, 100.0)
            assert_allclose(row.condition_rhs, 2.5)
            assert row.condition_holds
        assert report.all_conditions_hold

    def test_equal_probabilities_fail_for_large_beta(self):
        report = recovery_condition_report(
            SbmParams((10, 10), 0.3, 0.3), s=1, alpha=0.1, beta=0.1
        )
        assert all(r.condition_lhs == 1.0 for r in report.clusters)
        assert not report.all_conditions_hold

    def test_zero_p_out_infinite_ratio(self):
        report = recovery_condition_report(
            SbmParams((5, 5), 0.9, 0.0), s=2, alpha=0.1, beta=1.0
        )
        assert all(math.isinf(r.condition_lhs) for r in report.clusters)
        assert report.all_conditions_hold

    def test_single_cluster_spectral_term_only(self):
        report = recovery_condition_report(
            SbmParams((30,), 0.4, 0.2), s=1, alpha=0.1, beta=1e-3
        )
        row = report.clusters[0]
        assert row.boundary_term == 0.0
        assert_allclose(report.failure_bound_raw, row.spectral_term)

    def test_clipping(self):
        report = recovery_condition_report(
            SbmParams((50, 50), 1.0, 0.01), s=5, alpha=0.1, beta=1e-3
        )
        expected_raw = 2 * (math.exp(-2.5) + 49 * 0.9**25)
        assert_allclose(report.failure_bound_raw, expected_raw)
        assert report.failure_bound_clipped == 1.0

    def test_bad_constants(self):
        with pytest.raises(ValueError):
            recovery_condition_report(SbmParams((5, 5), 0.5, 0.1), 1, alpha=-1)

    @pytest.mark.parametrize("s", [0, -1, 2.5, "2", None])
    def test_bad_seed_count_named(self, s):
        # 0 and -1 used to give a condition_lhs of 0 or below, 2.5 a fraction
        with pytest.raises(analysis.ConditionParameterError, match=r"^s\b"):
            recovery_condition_report(SbmParams((5, 5), 0.5, 0.1), s)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
    def test_non_finite_or_non_positive_constants_named(self, bad):
        params = SbmParams((5, 5), 0.5, 0.1)
        for kwargs in ({"alpha": bad}, {"beta": bad}):
            with pytest.raises(analysis.ConditionParameterError):
                recovery_condition_report(params, 1, **kwargs)
        with pytest.raises(analysis.ConditionParameterError):
            boundary_concentration_bound(5, 10, 0.1, bad)


def bridge_instance(bridge_graph, bridge_partition):
    seeds = SeedSet(((0,), (7,)))
    params = SbmParams((4, 4), 0.9, 0.1)
    return SbmInstance(bridge_graph, bridge_partition, seeds, params, rng_seed=0)


class TestAnalyzeInstance:
    def test_bridge_instance_report(self, bridge_graph, bridge_partition):
        report = analyze_instance(bridge_instance(bridge_graph, bridge_partition))
        assert len(report.clusters) == 2
        for row in report.clusters:
            assert row.boundary_node_count == 1
            assert row.boundary_edge_count == 1
            assert row.lambda2 > 0
            assert row.subset_cut_holds is True
            assert row.wellconnected_holds is True
        assert report.clusters[0].wellconnected_by_seed == ((0, True),)
        assert report.clusters[1].wellconnected_by_seed == ((7, True),)

    def test_each_cluster_condition_counts_its_own_seeds(
        self, bridge_graph, bridge_partition
    ):
        # one seed in cluster 1, two in cluster 2: every cluster's condition
        # used to take the first group's count
        params = SbmParams((4, 4), 0.9, 0.1)
        inst = SbmInstance(bridge_graph, bridge_partition, SeedSet(((0,), (6, 7))),
                           params, rng_seed=0)
        report = analyze_instance(inst)
        for k, s in ((1, 1), (2, 2)):
            want = recovery_condition_report(params, s).clusters[k - 1]
            assert report.clusters[k - 1].condition == want
        assert [row.condition.condition_lhs for row in report.clusters] == [
            pytest.approx(9.0), pytest.approx(18.0)
        ]
        # the failure bound does not depend on the seed count
        assert report.failure_bound_raw == recovery_condition_report(
            params, 1
        ).failure_bound_raw

    def test_disconnected_cluster_flagged(self):
        graph = build_graph(4, [(0, 2), (1, 2), (2, 3)])  # cluster 1 = {0,1}: no intra edge
        truth = Partition(np.array([1, 1, 2, 2]), 2)
        inst = SbmInstance(
            graph, truth, SeedSet(((0,), (3,))), SbmParams((2, 2), 0.5, 0.5), 0
        )
        report = analyze_instance(inst)
        assert report.clusters[0].lambda2 == 0.0
        assert not report.clusters[0].spectral_cut_bound_holds

    def test_csv_and_text_output(self, tmp_path, bridge_graph, bridge_partition):
        report = analyze_instance(bridge_instance(bridge_graph, bridge_partition))
        out = tmp_path / "report.csv"
        write_analysis_csv(out, report)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 2 clusters + global
        assert lines[0].startswith("scope,size,boundary_node_count")
        assert lines[-1].startswith("global,")
        text = format_analysis_text(report)
        assert "cluster 1" in text and "global:" in text
        assert "seed 7: well_connected=true" in text

    def test_large_clusters_decided(self):
        g, truth = generate(SbmParams((30, 30), 0.6, 0.05), rng_seed=1)
        inst = SbmInstance(
            g, truth, SeedSet(((0,), (30,))), SbmParams((30, 30), 0.6, 0.05), 1
        )
        report = analyze_instance(inst)
        assert isinstance(report.clusters[0].subset_cut_holds, bool)
        assert isinstance(report.clusters[0].wellconnected_holds, bool)
        # a reference-protocol instance: one uniform verdict for all 5 seeds
        inst = generate_instance(SbmParams((50, 50), 0.5, 0.025), s=5, rng_seed=3)
        for row in analyze_instance(inst).clusters:
            assert isinstance(row.subset_cut_holds, bool)
            assert len(row.uniform_cut_by_seed) == 5
            assert all(isinstance(f, bool) for _, f in row.uniform_cut_by_seed)

    def test_matches_references(self):
        # per-seed verdicts against every +-2 pattern, cluster verdicts
        # against the 2^n subset enumeration
        rng = np.random.default_rng(88)
        counts = Counter()
        for _ in range(150):
            inst = random_instance(rng, max_size=8)
            g, truth = inst.graph, inst.truth
            for k, row in enumerate(analyze_instance(inst).clusters, 1):
                for node, flag in row.wellconnected_by_seed:
                    assert flag == well_connected_by_patterns(g, truth, k, node)
                    counts["seed", flag] += 1
                assert row.wellconnected_holds == any(
                    flag for _, flag in row.wellconnected_by_seed
                )
                seeds = [node for node, _ in row.uniform_cut_by_seed]
                assert seeds == [node for node, _ in row.wellconnected_by_seed]
                for node, flag in row.uniform_cut_by_seed:
                    want = subset_cuts_by_enumeration(g, truth, k, node)
                    assert (row.subset_cut_holds, flag) == want
                counts["subset", row.subset_cut_holds] += 1
                counts["uniform", row.uniform_cut_by_seed[0][1]] += 1
                if all(f for _, f in row.wellconnected_by_seed):
                    # decided by the copies of the nodes that are not seeds
                    counts["after seeds", row.subset_cut_holds] += 1
        for kind in ("seed", "subset", "uniform"):
            assert counts[kind, True] >= 20 and counts[kind, False] >= 20
        assert counts["after seeds", True] >= 20 and counts["after seeds", False] >= 5

    def test_small_instance_is_one_flow(self, monkeypatch):
        # the (16,16) draws the certificate benchmark analyzes: 62 copies of
        # two clusters, every seed certified, in one max-flow
        inst = generate_instance(SbmParams((16, 16), 0.9, 0.02), s=2, rng_seed=0)
        flows = counted_flows(monkeypatch)
        report = analyze_instance(inst)
        assert [row.boundary_node_count for row in report.clusters] == [3, 4]
        assert all(flag for row in report.clusters for _, flag in row.wellconnected_by_seed)
        assert [nodes for nodes, _ in flows] == [2 * (16 + 15) * 16 + 2]

    @pytest.mark.parametrize("copies_per_flow", [1, 2.5])
    def test_failing_seeds_stop_early(self, monkeypatch, copies_per_flow):
        # every seed falls short: the per-subset copies of the other nodes
        # are dropped, and each cluster's first Menger flow is short too
        inst = generate_instance(SbmParams((40, 30, 20), 0.3, 0.1), s=3, rng_seed=0)
        inner_edges = cluster_view(inst.graph, inst.truth, 1)[1]
        budget = int(copies_per_flow * (2 * len(inner_edges) + 1))
        monkeypatch.setattr(analysis, "FLOW_ARC_CHUNK", budget)
        flows = counted_flows(monkeypatch)
        report = analyze_instance(inst)
        for row in report.clusters:
            assert not any(flag for _, flag in row.wellconnected_by_seed)
            assert not row.subset_cut_holds and not row.uniform_cut_by_seed[0][1]
        assert len(flows) <= 3 * 3 + 3

    def test_seed_copies_issued_first(self, monkeypatch):
        # a budget that holds every cluster's seed copies and no more: they
        # share the first flow, and each failing cluster's Menger copies
        # take one flow each; the other nodes' copies never run
        inst = generate_instance(SbmParams((40, 30, 20), 0.3, 0.1), s=3, rng_seed=0)
        views = [cluster_view(inst.graph, inst.truth, k) for k in (1, 2, 3)]
        budget = sum(3 * (2 * len(edges) + len(boundary) + 1)
                     for _, edges, boundary, _ in views)
        monkeypatch.setattr(analysis, "FLOW_ARC_CHUNK", budget)
        flows = counted_flows(monkeypatch)
        analyze_instance(inst)
        assert flows[0][0] == 3 * (40 + 30 + 20) + 2
        assert len(flows) == 1 + 3

    def test_holding_copies_fill_whole_flows(self, monkeypatch):
        # every flow but the last is full to within one copy, so conditions
        # that hold take no more flows than with flows of their own: a dense
        # 60-node cluster's check is 6 flows, three such clusters at most 18
        inst = generate_instance(SbmParams((60, 40), 0.9, 0.01), s=1, rng_seed=1)
        three = generate_instance(SbmParams((60, 60, 60), 0.9, 0.002), s=3, rng_seed=0)
        views = [cluster_view(three.graph, three.truth, k) for k in (1, 2, 3)]
        widest = max(2 * len(edges) + len(boundary) + 1
                     for _, edges, boundary, _ in views)
        flows = counted_flows(monkeypatch)
        result = subset_cut_check(inst.graph, inst.truth, 1, inst.seeds.per_cluster[0][0])
        assert result.per_subset_holds and result.uniform_holds
        assert len(flows) == 6
        flows.clear()
        report = analyze_instance(three)
        assert all(row.subset_cut_holds and row.uniform_cut_by_seed[0][1]
                   for row in report.clusters)
        assert len(flows) <= 18
        assert all(arcs > analysis.FLOW_ARC_CHUNK - widest for _, arcs in flows[:-1])

    def test_one_pass_per_call(self, monkeypatch):
        # every cluster's network comes from one pass over the edges per
        # call, no graph is built anew, and no certificate flow reads a
        # residual network
        calls = []
        one_pass = analysis._ClusterNetwork.of_every_cluster

        def counted(g, p):
            nets = one_pass(g, p)
            calls.append([net.sub.num_nodes for net in nets])
            return nets

        def refused(*args, **kwargs):
            raise AssertionError("a certificate rebuilt a graph or read a residual")

        monkeypatch.setattr(analysis._ClusterNetwork, "of_every_cluster", counted)
        monkeypatch.setattr(graphs, "build_graph", refused)
        monkeypatch.setattr(analysis, "breadth_first_order", refused)
        inst = generate_instance(SbmParams((9, 7, 8), 0.7, 0.1), s=3, rng_seed=4)
        report = analyze_instance(inst)
        assert calls == [[9, 7, 8]]
        assert [len(row.wellconnected_by_seed) for row in report.clusters] == [3, 3, 3]
        subset_cut_check(inst.graph, inst.truth, 2, inst.seeds.per_cluster[1][0])
        well_connected(inst.graph, inst.truth, 3, inst.seeds.per_cluster[2][0])
        assert calls == [[9, 7, 8]] * 3


@st.composite
def graph_and_partition(draw):
    """A graph of 1-14 nodes, edges in a drawn order, and a partition of its
    nodes into 1..n clusters in a drawn arrangement (not id blocks)."""
    n = draw(st.integers(1, 14))
    k = draw(st.integers(1, n))
    extra = draw(st.lists(st.integers(1, k), min_size=n - k, max_size=n - k))
    assignment = draw(st.permutations(list(range(1, k + 1)) + extra))
    pairs = draw(st.permutations([(i, j) for i in range(n) for j in range(i + 1, n)]))
    edges = pairs[:draw(st.integers(0, len(pairs)))]
    return build_graph(n, edges), Partition(np.array(assignment), k)


class TestClusterNetworks:
    @settings(deadline=None, max_examples=300)
    @given(graph_and_partition())
    # one cluster; singletons, none with an inner edge; no boundary; no edge;
    # interleaved clusters with edges out of id order
    @example((build_graph(3, [(0, 1), (1, 2)]), Partition(np.array([1, 1, 1]), 1)))
    @example((build_graph(3, [(1, 2), (0, 1)]), Partition(np.array([1, 2, 3]), 3)))
    @example((build_graph(4, [(2, 3), (0, 1)]), Partition(np.array([1, 1, 2, 2]), 2)))
    @example((build_graph(2, []), Partition(np.array([2, 1]), 2)))
    @example((build_graph(5, [(3, 4), (0, 2), (1, 4), (1, 3), (0, 1)]),
              Partition(np.array([2, 1, 2, 1, 1]), 2)))
    def test_one_pass_matches_set_reference(self, case):
        g, p = case
        nets = analysis._ClusterNetwork.of_every_cluster(g, p)
        assert [net.cluster for net in nets] == list(range(1, p.num_clusters + 1))
        for net in nets:
            members, edges, boundary, boundary_edges = cluster_view(g, p, net.cluster)
            assert net.members.tolist() == members
            assert net.sub.num_nodes == len(members)
            assert net.sub.edges.tolist() == [list(e) for e in edges]
            assert net.sub.edges.dtype == g.edges.dtype
            assert net.sub.degrees.tolist() == np.bincount(
                np.ravel(edges).astype(int), minlength=len(members)
            ).tolist()
            assert net.boundary.tolist() == boundary
            assert net.boundary_edges == boundary_edges

    def test_partition_must_cover_the_graph(self, bridge_graph):
        for check in (subset_cut_check, well_connected):
            with pytest.raises(PartitionError, match="covers 6 nodes, graph has 8"):
                check(bridge_graph, contiguous_partition([3, 3]), 1, 0)
