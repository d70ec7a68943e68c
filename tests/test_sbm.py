import numpy as np
import pytest
from numpy.testing import assert_array_equal

from tvclust.sbm import (
    InstanceFormatError,
    SbmParams,
    SbmParamsError,
    SeedCountError,
    generate,
    generate_instance,
    permute_instance,
    read_instance,
    select_seeds,
    write_instance,
)
from tvclust.graphs import contiguous_partition


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


class TestSelectSeeds:
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

    def test_permutation_preserves_structure(self):
        inst = generate_instance(SbmParams((6, 6), 0.9, 0.1), s=2, rng_seed=13)
        shuffled = permute_instance(inst, rng_seed=3)
        assert shuffled.graph.num_edges == inst.graph.num_edges
        assert_array_equal(
            np.sort(shuffled.truth.cluster_sizes), np.sort(inst.truth.cluster_sizes)
        )
        labels = shuffled.seeds.labels()
        assert all(shuffled.truth.assignment[i] == c for i, c in labels.items())
