import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from tvclust import sbm
from tvclust.sbm import (
    InstanceFormatError,
    RngSeedError,
    SbmInstance,
    SbmParams,
    SbmParamsError,
    SeedCountError,
    SeedGroupError,
    SeedSet,
    generate,
    generate_instance,
    permute_instance,
    read_instance,
    select_seeds,
    write_instance,
)
from tvclust.graphs import Partition, PartitionError, build_graph, contiguous_partition


class TestParams:
    def test_valid(self):
        p = SbmParams((50, 50), 0.5, 0.025)
        assert p.num_nodes == 100
        assert p.num_clusters == 2

    def test_bad_probability(self):
        with pytest.raises(SbmParamsError):
            SbmParams((5, 5), 1.5, 0.0)

    def test_bad_sizes(self):
        with pytest.raises(SbmParamsError):
            SbmParams((5, 0), 0.5, 0.1)

    def test_non_integer_size_rejected(self):
        # (5.5, 5) used to become (5, 5)
        with pytest.raises(SbmParamsError, match="cluster size must be an integer"):
            SbmParams((5.5, 5), 0.5, 0.1)
        assert SbmParams((5.0, 5), 0.5, 0.1).cluster_sizes == (5, 5)


class TestGenerate:
    def test_deterministic_limit_two_triangles(self):
        g, truth = generate(SbmParams((3, 3), 1.0, 0.0), rng_seed=0)
        assert g.num_edges == 6
        expected = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
        assert set(map(tuple, g.edges.tolist())) == expected
        assert_array_equal(truth.assignment, [1, 1, 1, 2, 2, 2])

    def test_empty_graph(self):
        g, _ = generate(SbmParams((4, 4), 0.0, 0.0), rng_seed=5)
        assert g.num_edges == 0

    def test_complete_graph(self):
        g, _ = generate(SbmParams((3, 3), 1.0, 1.0), rng_seed=5)
        assert g.num_edges == 15

    def test_reproducible(self):
        params = SbmParams((20, 30), 0.4, 0.05)
        g1, _ = generate(params, rng_seed=314159)
        g2, _ = generate(params, rng_seed=314159)
        assert_array_equal(g1.edges, g2.edges)

    def test_different_seeds_differ(self):
        params = SbmParams((20, 30), 0.4, 0.05)
        g1, _ = generate(params, rng_seed=1)
        g2, _ = generate(params, rng_seed=2)
        assert g1.edges.shape != g2.edges.shape or not np.array_equal(
            g1.edges, g2.edges
        )

    def test_intra_edge_count_moments(self):
        # mean intra-cluster edge count over 200 draws vs. Binomial(1225, 0.5):
        # per-draw sigma 17.5, sigma of the mean 17.5/sqrt(200)
        params = SbmParams((50, 50), 0.5, 0.01)
        counts = []
        for seed in range(200):
            g, truth = generate(params, rng_seed=seed)
            in_one = truth.assignment[g.heads] == 1
            both_one = in_one & (truth.assignment[g.tails] == 1)
            counts.append(int(both_one.sum()))
        mean = np.mean(counts)
        expected = 0.5 * (50 * 49 / 2)
        sigma_mean = np.sqrt(1225 * 0.25) / np.sqrt(200)
        assert abs(mean - expected) < 3 * sigma_mean

    def test_cross_edge_count_moments(self):
        params = SbmParams((50, 50), 0.5, 0.05)
        counts = []
        n_pairs = 50 * 50
        for seed in range(200):
            g, truth = generate(params, rng_seed=seed)
            cross = truth.assignment[g.heads] != truth.assignment[g.tails]
            counts.append(int(cross.sum()))
        mean = np.mean(counts)
        expected = 0.05 * n_pairs
        sigma_mean = np.sqrt(n_pairs * 0.05 * 0.95) / np.sqrt(200)
        assert abs(mean - expected) < 4 * sigma_mean

    def test_disjoint_pair_sets_uncorrelated(self):
        # intra counts of cluster 1 vs cluster 2 come from disjoint pair sets
        params = SbmParams((30, 30), 0.3, 0.02)
        c1, c2 = [], []
        for seed in range(200):
            g, truth = generate(params, rng_seed=seed)
            a = truth.assignment
            c1.append(int(((a[g.heads] == 1) & (a[g.tails] == 1)).sum()))
            c2.append(int(((a[g.heads] == 2) & (a[g.tails] == 2)).sum()))
        corr = np.corrcoef(c1, c2)[0, 1]
        assert abs(corr) < 0.2  # ~N(0, 1/sqrt(200)) under independence


def all_pairs_edges(params, rng_seed):
    """Reference draw: one uniform per pair of the full triu_indices list,
    as the int32 (head, tail) rows a Graph stores."""
    n = params.num_nodes
    truth = contiguous_partition(params.cluster_sizes)
    rng = np.random.Generator(np.random.Philox(rng_seed))
    iu, ju = np.triu_indices(n, k=1)
    same = truth.assignment[iu] == truth.assignment[ju]
    prob = np.where(same, params.p_in, params.p_out)
    hit = rng.random(iu.size) < prob
    return np.column_stack([iu[hit], ju[hit]]).astype(np.int32)


def random_params(rng):
    k = int(rng.integers(1, 6))
    sizes = tuple(int(n) for n in rng.integers(1, 40, size=k))
    return SbmParams(sizes, float(rng.random()), float(rng.random()) * 0.3)


EDGE_CASES = [
    SbmParams((1,), 0.5, 0.5),
    SbmParams((30,), 0.2, 0.9),
    SbmParams((1, 1, 1, 1), 0.5, 1.0),
    SbmParams((1, 5, 1), 0.7, 0.2),
    SbmParams((3, 17, 8, 1, 40), 0.4, 0.05),
    SbmParams((12, 9), 0.0, 0.0),
    SbmParams((12, 9), 1.0, 1.0),
    SbmParams((12, 9), 1.0, 0.0),
    SbmParams((12, 9), 0.0, 1.0),
    SbmParams((6, 2, 7), 0.0, 0.3),
    SbmParams((6, 2, 7), 1.0, 0.3),
]


class TestChunkedDraw:
    """`generate` reads the same Philox stream as one draw over all pairs."""

    @pytest.mark.parametrize("params", EDGE_CASES)
    def test_edge_cases_match_all_pairs_draw(self, params):
        for seed in (0, 7, 2**63 + 11):
            g, _ = generate(params, seed)
            expected = all_pairs_edges(params, seed)
            assert g.edges.dtype == expected.dtype
            assert_array_equal(g.edges, expected)

    def test_random_draws_match_all_pairs_draw(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            params = random_params(rng)
            seed = int(rng.integers(2**63))
            g, _ = generate(params, seed)
            assert_array_equal(g.edges, all_pairs_edges(params, seed))

    @pytest.mark.parametrize("chunk", [1, 5, 37])
    def test_small_chunks_match_all_pairs_draw(self, monkeypatch, chunk):
        # 90 nodes: the first rows hold 89 pairs, more than any chunk here,
        # and every draw spans many chunks
        monkeypatch.setattr(sbm, "PAIR_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        cases = EDGE_CASES + [SbmParams((30, 45, 15), 0.3, 0.05)]
        cases += [random_params(rng) for _ in range(10)]
        for params in cases:
            g, _ = generate(params, 99)
            assert_array_equal(g.edges, all_pairs_edges(params, 99))

    def test_memory_is_bounded_by_edges(self):
        # 6000 nodes hold 18M pairs; the all-pairs draw peaked near 580 MB
        params = SbmParams((1500,) * 4, 0.01, 1e-5)
        tracemalloc.start()
        try:
            g, _ = generate(params, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.num_edges > 40_000
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestGeneratedGraph:
    """`generate` wraps its drawn edges in a Graph without build_graph's
    checks; the graph is the one build_graph makes of the same edges."""

    @staticmethod
    def assert_as_built(g):
        built = build_graph(g.num_nodes, g.edges)
        assert g.num_nodes == built.num_nodes
        assert g.edges.dtype == built.edges.dtype == np.int32
        assert g.edges.flags.c_contiguous
        assert_array_equal(g.edges, built.edges)
        assert g.degrees.dtype == built.degrees.dtype
        assert_array_equal(g.degrees, built.degrees)
        for a in (g.edges, g.degrees, built.edges, built.degrees):
            assert not a.flags.writeable

    @pytest.mark.parametrize("params", EDGE_CASES)
    def test_edge_cases(self, params):
        for seed in (0, 7, 2**63 + 11):
            self.assert_as_built(generate(params, seed)[0])

    def test_random_params(self):
        rng = np.random.default_rng(4096)
        for _ in range(40):
            params = random_params(rng)
            self.assert_as_built(generate(params, int(rng.integers(2**63)))[0])


class TestSelectSeeds:
    def test_any_partition_draws_from_each_cluster_ids(self):
        # each cluster's stream chooses S of its ascending node ids, however
        # the clusters interleave
        rng = np.random.default_rng(12)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            sizes = rng.integers(3, 9, k)
            truth = Partition(rng.permutation(np.repeat(np.arange(1, k + 1), sizes)), k)
            s = int(rng.integers(1, 4))
            streams = np.random.SeedSequence(77).spawn(k)
            expected = tuple(
                tuple(sorted(np.random.Generator(np.random.Philox(streams[c - 1]))
                             .choice(truth.nodes_in(c), size=s, replace=False).tolist()))
                for c in range(1, k + 1)
            )
            assert select_seeds(truth, s, 77).per_cluster == expected

    def test_exhaustive(self):
        truth = contiguous_partition([3, 3])
        seeds = select_seeds(truth, 3, rng_seed=0)
        assert seeds.per_cluster == ((0, 1, 2), (3, 4, 5))
        assert set(seeds.all_nodes) == set(range(6))

    def test_one_per_cluster(self):
        truth = contiguous_partition([10, 10])
        seeds = select_seeds(truth, 1, rng_seed=4)
        assert len(seeds.per_cluster) == 2
        assert all(len(g) == 1 for g in seeds.per_cluster)
        assert seeds.per_cluster[0][0] < 10 <= seeds.per_cluster[1][0]

    def test_five_per_cluster_of_fifty(self):
        truth = contiguous_partition([50, 50])
        seeds = select_seeds(truth, 5, rng_seed=7)
        assert len(seeds.all_nodes) == 10
        labels = seeds.labels()
        assert sum(1 for v in labels.values() if v == 1) == 5
        assert all(truth.assignment[i] == labels[i] for i in labels)

    def test_too_many(self):
        truth = contiguous_partition([3, 8])
        with pytest.raises(SeedCountError):
            select_seeds(truth, 4, rng_seed=0)

    def test_non_integer_count_rejected(self):
        # 1.7 used to draw 1 seed per cluster
        params = SbmParams((5, 5), 0.5, 0.1)
        with pytest.raises(SeedCountError, match="s must be an integer, got 1.7"):
            generate_instance(params, 1.7, 3)
        assert generate_instance(params, 2.0, 3).seeds == generate_instance(
            params, 2, 3
        ).seeds

    @pytest.mark.parametrize("rng_seed", [-1, 2.5])
    def test_bad_rng_seed_named(self, rng_seed):
        # -1 used to fail inside numpy with a bare ValueError, 2.5 with a
        # bare TypeError
        with pytest.raises(RngSeedError, match="rng_seed"):
            select_seeds(contiguous_partition([4, 4]), 1, rng_seed)

    def test_deterministic(self):
        truth = contiguous_partition([20, 20])
        a = select_seeds(truth, 4, rng_seed=99)
        b = select_seeds(truth, 4, rng_seed=99)
        assert a == b


class TestInstance:
    def test_generate_instance(self):
        inst = generate_instance(SbmParams((10, 10), 0.8, 0.1), s=2, rng_seed=21)
        assert inst.graph.num_nodes == 20
        assert inst.seeds.seeds_per_cluster == 2
        assert inst.rng_seed == 21

    @pytest.mark.parametrize(
        "groups, message",
        [(((0,),), r"2 clusters, seed groups of sizes \[1\]"),
         (((0,), (6,), (7,)), r"2 clusters, seed groups of sizes \[1, 1, 1\]"),
         (((0,), ()), r"2 clusters, seed groups of sizes \[1, 0\]"),
         (((0,), (1,)), "seed 1 is not a node of cluster 2"),
         (((0,), (12,)), "seed 12 is not a node of cluster 2"),
         (((-1,), (6,)), "seed -1 is not a node of cluster 1"),
         (((0.5,), (6,)), "seed ids must be integers"),
         (((0, 0), (7, 9)), "seed 0 is listed more than once")],
        ids=["fewer", "extra", "empty", "wrong_cluster", "past_last", "negative",
             "fraction", "repeated"],
    )
    def test_seed_groups_checked(self, groups, message):
        # fewer or empty groups used to make analyze_instance raise a bare
        # IndexError; extra groups and stray seeds were taken without a word
        inst = generate_instance(SbmParams((6, 6), 0.9, 0.1), s=2, rng_seed=0)
        with pytest.raises(SeedGroupError, match=message):
            SbmInstance(inst.graph, inst.truth, SeedSet(groups), inst.params, 0)

    @pytest.mark.parametrize(
        "sizes", [(9, 9), (5, 6, 7), (6, 6, 6, 6)], ids=["fewer", "other_sizes", "extra"]
    )
    def test_params_checked_against_truth(self, sizes):
        # (9, 9) on a (6, 6, 6) instance used to make analyze_instance raise
        # a bare IndexError; (5, 6, 7) gave each cluster another's condition
        inst = generate_instance(SbmParams((6, 6, 6), 0.9, 0.1), s=2, rng_seed=0)
        params = SbmParams(sizes, 0.9, 0.1)
        message = r"partition's cluster sizes are \[6, 6, 6\]"
        with pytest.raises(SbmParamsError, match=message):
            SbmInstance(inst.graph, inst.truth, inst.seeds, params, 0)

    def test_graph_checked_against_truth(self):
        # a 10-node graph with a 12-node truth made accuracy(cluster(...))
        # fail with a bare IndexError
        inst = generate_instance(SbmParams((6, 6), 0.9, 0.1), s=1, rng_seed=0)
        graph = build_graph(10, [(0, 1)])
        with pytest.raises(PartitionError, match="partition covers 12 nodes, graph has 10"):
            SbmInstance(graph, inst.truth, inst.seeds, inst.params, 0)

    @pytest.mark.parametrize("rng_seed", [-1, 2.5, "7"])
    def test_bad_rng_seed_named(self, rng_seed):
        # -1 used to fail inside numpy with a bare ValueError
        with pytest.raises(RngSeedError, match="rng_seed"):
            generate_instance(SbmParams((4, 4), 0.5, 0.1), 1, rng_seed)

    def test_unequal_seed_groups_not_written(self, tmp_path):
        # the header's one S= count used to come from the first group, so
        # read_instance rejected the files written for groups of sizes 2, 1
        inst = generate_instance(SbmParams((6, 6), 0.9, 0.1), s=2, rng_seed=0)
        uneven = SbmInstance(inst.graph, inst.truth, SeedSet(((0, 1), (6,))),
                             inst.params, 0)
        with pytest.raises(InstanceFormatError, match=r"sizes \[2, 1\]"):
            write_instance(uneven, tmp_path / "inst")
        assert not (tmp_path / "inst").exists()

    def test_round_trip(self, tmp_path):
        inst = generate_instance(SbmParams((8, 12), 0.7, 0.08), s=3, rng_seed=77)
        write_instance(inst, tmp_path / "inst")
        back = read_instance(tmp_path / "inst")
        assert_array_equal(back.graph.edges, inst.graph.edges)
        assert_array_equal(back.truth.assignment, inst.truth.assignment)
        assert back.seeds == inst.seeds
        assert back.params == inst.params
        assert back.rng_seed == inst.rng_seed

    def test_write_is_byte_stable(self, tmp_path):
        inst = generate_instance(SbmParams((6, 6), 0.9, 0.1), s=2, rng_seed=5)
        write_instance(inst, tmp_path / "a")
        write_instance(inst, tmp_path / "b")
        for name in ("header.txt", "edges.txt", "partition.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_missing_header(self, tmp_path):
        with pytest.raises(InstanceFormatError):
            read_instance(tmp_path)

    def test_partition_shorter_than_header(self, tmp_path):
        inst = generate_instance(SbmParams((6, 6), 0.9, 0.1), s=1, rng_seed=5)
        write_instance(inst, tmp_path)
        partition = tmp_path / "partition.txt"
        lines = partition.read_text().splitlines()
        partition.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(InstanceFormatError, match="partition covers 11"):
            read_instance(tmp_path)

    def test_partition_sizes_must_match_header(self, tmp_path):
        # node 5 moved to cluster 2: sizes [5, 7] against the header's (6, 6)
        inst = generate_instance(SbmParams((6, 6), 0.9, 0.1), s=1, rng_seed=5)
        write_instance(inst, tmp_path)
        partition = tmp_path / "partition.txt"
        partition.write_text(partition.read_text().replace("5 1\n", "5 2\n"))
        with pytest.raises(InstanceFormatError, match=r"sizes=\[6, 6\].*\[5, 7\]"):
            read_instance(tmp_path)

    def test_permuted_instance_round_trips(self, tmp_path):
        inst = permute_instance(
            generate_instance(SbmParams((4, 7, 5), 0.9, 0.1), s=2, rng_seed=8), 3
        )
        write_instance(inst, tmp_path)
        back = read_instance(tmp_path)
        assert_array_equal(back.truth.assignment, inst.truth.assignment)
        assert back.params == inst.params and back.seeds == inst.seeds

    @pytest.mark.parametrize("bad_id", ["-1", "12"])
    def test_seed_id_out_of_range(self, tmp_path, bad_id):
        # the cluster-2 seed replaced: -1 would wrap to node 11, itself in
        # cluster 2, and 12 lies past the last of the 12 nodes
        inst = generate_instance(SbmParams((6, 6), 0.9, 0.1), s=1, rng_seed=5)
        write_instance(inst, tmp_path)
        header = tmp_path / "header.txt"
        one, two = inst.seeds.all_nodes
        text = header.read_text().replace(f"seeds={one},{two}", f"seeds={one},{bad_id}")
        header.write_text(text)
        with pytest.raises(InstanceFormatError, match="outside"):
            read_instance(tmp_path)

    def test_repeated_seed_id_rejected(self, tmp_path):
        # seeds=0,0,7,9 used to read back as ((0, 0), (7, 9)), and
        # analyze_instance then reported seed 0 twice
        inst = generate_instance(SbmParams((6, 6), 0.9, 0.1), s=2, rng_seed=5)
        write_instance(inst, tmp_path)
        header = tmp_path / "header.txt"
        seeds = ",".join(map(str, inst.seeds.all_nodes))
        header.write_text(header.read_text().replace(f"seeds={seeds}", "seeds=0,0,7,9"))
        with pytest.raises(SeedGroupError, match="seed 0 is listed more than once"):
            read_instance(tmp_path)

    def test_zero_seeds_per_cluster_rejected(self, tmp_path):
        inst = generate_instance(SbmParams((4, 4), 0.9, 0.1), s=1, rng_seed=5)
        write_instance(inst, tmp_path)
        header = tmp_path / "header.txt"
        one, two = inst.seeds.all_nodes
        text = header.read_text().replace(f"seeds={one},{two}", "seeds=")
        header.write_text(text.replace("S=1\n", "S=0\n"))
        with pytest.raises(InstanceFormatError, match="S=0 must be >= 1"):
            read_instance(tmp_path)

    @pytest.mark.parametrize("rng_seed", [-1, 1.5, "7"])
    def test_permute_bad_rng_seed_named(self, rng_seed):
        # -1 used to fail inside numpy with a bare ValueError, 1.5 with a
        # bare TypeError
        inst = generate_instance(SbmParams((4, 4), 0.9, 0.1), s=1, rng_seed=1)
        with pytest.raises(RngSeedError, match="rng_seed"):
            permute_instance(inst, rng_seed)

    def test_permutation_preserves_structure(self):
        inst = generate_instance(SbmParams((6, 6), 0.9, 0.1), s=2, rng_seed=13)
        shuffled = permute_instance(inst, rng_seed=3)
        assert shuffled.graph.num_edges == inst.graph.num_edges
        assert_array_equal(
            np.sort(shuffled.truth.cluster_sizes), np.sort(inst.truth.cluster_sizes)
        )
        labels = shuffled.seeds.labels()
        assert all(shuffled.truth.assignment[i] == c for i, c in labels.items())
