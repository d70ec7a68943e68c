import csv

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from tvclust.clustering import (
    ClusteringResult,
    SeedLabelError,
    accuracy,
    cluster,
    indicator_targets,
    write_result_csv,
)
from tvclust.graphs import PartitionError, build_graph, contiguous_partition
from tvclust.sbm import SbmParams, generate_instance
from tvclust.solver import SolverConfig

TRIANGLES = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]


class TestIndicatorTargets:
    def test_two_clusters(self):
        targets = indicator_targets({2: 1, 11: 2}, k=1)
        assert targets == {2: 1.0, 11: 0.0}

    def test_no_seed_of_that_label(self):
        targets = indicator_targets({2: 1, 11: 1}, k=2)
        assert targets == {2: 0.0, 11: 0.0}

    def test_five_per_cluster(self):
        labels = {i: 1 for i in range(5)} | {i: 2 for i in range(50, 55)}
        targets = indicator_targets(labels, k=1)
        assert sum(v == 1.0 for v in targets.values()) == 5
        assert sum(v == 0.0 for v in targets.values()) == 5


class TestCluster:
    def test_two_disjoint_triangles(self):
        g = build_graph(6, TRIANGLES)
        result = cluster(g, {0: 1, 3: 2})
        assert_array_equal(result.assignment, [1, 1, 1, 2, 2, 2])

    def test_bridge_graph(self, bridge_graph):
        result = cluster(bridge_graph, {0: 1, 7: 2}, SolverConfig(max_iters=3000))
        assert_array_equal(result.assignment, [1, 1, 1, 1, 2, 2, 2, 2])

    def test_single_cluster_degenerate(self, bridge_graph):
        # the one target is 1 on every seed: the constant 1, with no sweep
        result = cluster(bridge_graph, {0: 1, 5: 1})
        assert_array_equal(result.assignment, np.ones(8))
        assert_array_equal(result.scores, np.ones((1, 8)))
        diag = result.diagnostics[0]
        assert (diag.iters, diag.tv_final, diag.bound, diag.gap) == (0, 0.0, 0.0, 0.0)
        assert diag.converged and diag.stop_reason == "level_set"

    def test_missing_cluster_rejected(self, bridge_graph):
        with pytest.raises(SeedLabelError, match="cluster 2 of 1..3 has no labeled"):
            cluster(bridge_graph, {0: 1, 7: 3})

    def test_huge_label_rejected_without_scanning_to_it(self, bridge_graph):
        # the check used to list every index up to the largest label: 1.7 s
        # and a 10**7-entry message for a label of 10**7
        with pytest.raises(SeedLabelError, match="cluster 2 of 1..10{12}"):
            cluster(bridge_graph, {0: 1, 7: 10**12})

    def test_empty_labels_rejected(self, bridge_graph):
        with pytest.raises(SeedLabelError):
            cluster(bridge_graph, {})

    def test_integer_valued_float_labels_accepted(self):
        # float labels used to raise a bare TypeError from range()
        g = build_graph(6, TRIANGLES)
        floats = cluster(g, {0: 1.0, 3: 2.0})
        assert_array_equal(floats.assignment, cluster(g, {0: 1, 3: 2}).assignment)

    def test_non_integer_label_rejected(self, bridge_graph):
        with pytest.raises(SeedLabelError, match="cluster label must be an integer"):
            cluster(bridge_graph, {0: 1, 3: 2.5})

    def test_seed_consistency(self):
        # labeled nodes always end up in their known cluster
        inst = generate_instance(SbmParams((8, 8, 8), 0.8, 0.05), s=2, rng_seed=3)
        result = cluster(inst.graph, inst.seeds.labels(), SolverConfig(max_iters=500))
        for node, c in inst.seeds.labels().items():
            assert result.assignment[node] == c

    def test_label_permutation_equivariance(self):
        inst = generate_instance(SbmParams((8, 8), 0.9, 0.05), s=2, rng_seed=9)
        labels = inst.seeds.labels()
        swapped = {i: 3 - c for i, c in labels.items()}
        cfg = SolverConfig(max_iters=800)
        r1 = cluster(inst.graph, labels, cfg)
        r2 = cluster(inst.graph, swapped, cfg)
        # guard: strict argmax everywhere, so the tie rule plays no role
        assert (np.abs(r1.scores[0] - r1.scores[1]) > 1e-9).all()
        assert_array_equal(3 - r1.assignment, r2.assignment)

    def test_deterministic(self):
        inst = generate_instance(SbmParams((10, 10), 0.7, 0.1), s=2, rng_seed=4)
        cfg = SolverConfig(max_iters=300)
        r1 = cluster(inst.graph, inst.seeds.labels(), cfg)
        r2 = cluster(inst.graph, inst.seeds.labels(), cfg)
        assert_array_equal(r1.assignment, r2.assignment)
        assert_array_equal(r1.scores, r2.scores)

    def test_argmax_scale_invariance(self):
        inst = generate_instance(SbmParams((6, 6), 0.9, 0.1), s=1, rng_seed=12)
        result = cluster(inst.graph, inst.seeds.labels(), SolverConfig(max_iters=500))
        rescaled = np.argmax(7.3 * result.scores, axis=0) + 1
        assert_array_equal(rescaled, result.assignment)

    def test_tie_breaks_to_smallest_index(self):
        scores = np.array([[0.5, 0.2], [0.5, 0.7]])
        assignment = np.argmax(scores, axis=0) + 1
        assert_array_equal(assignment, [1, 2])


class TestAccuracy:
    def _result(self, assignment, k=2):
        n = len(assignment)
        return ClusteringResult(
            np.asarray(assignment), np.zeros((k, n)), diagnostics=()
        )

    def test_perfect(self):
        truth = contiguous_partition([3, 3])
        res = self._result([1, 1, 1, 2, 2, 2])
        assert accuracy(res, truth, seeds=[0, 3]) == 1.0

    def test_constant_assignment_is_half_on_balanced(self):
        truth = contiguous_partition([50, 50])
        res = self._result([1] * 100)
        seeds = list(range(5)) + list(range(50, 55))
        assert accuracy(res, truth, seeds) == 45 / 90

    def test_all_wrong(self):
        truth = contiguous_partition([2, 2])
        res = self._result([2, 2, 1, 1])
        assert accuracy(res, truth, seeds=[0, 2]) == 0.0

    def test_all_labeled_degenerate(self):
        truth = contiguous_partition([2, 2])
        res = self._result([1, 1, 2, 2])
        assert accuracy(res, truth, seeds=[0, 1, 2, 3]) == 1.0

    def test_seeds_not_scored(self):
        truth = contiguous_partition([2, 2])
        res = self._result([1, 2, 2, 2])  # node 1 wrong, others right
        assert accuracy(res, truth, seeds=[1]) == 1.0
        assert accuracy(res, truth, seeds=[0]) == 2 / 3

    @pytest.mark.parametrize("seed", [-1, 9, 1.5])
    def test_seed_id_outside_graph_rejected(self, seed):
        # -1 used to mark node 3 as a seed through numpy's negative index,
        # and 9 raised a bare IndexError
        truth = contiguous_partition([2, 2])
        res = self._result([1, 1, 2, 2])
        with pytest.raises(SeedLabelError, match="labeled node id"):
            accuracy(res, truth, seeds=[seed])

    def test_size_mismatch_rejected(self):
        # a result for 4 nodes against a 6-node truth used to raise a bare
        # IndexError
        truth = contiguous_partition([3, 3])
        with pytest.raises(PartitionError, match="partition covers 6 nodes, result has 4"):
            accuracy(self._result([1, 1, 2, 2]), truth, seeds=[0, 3])

    def test_seedset_object(self):
        inst = generate_instance(SbmParams((5, 5), 1.0, 0.0), s=1, rng_seed=0)
        result = cluster(inst.graph, inst.seeds.labels())
        assert accuracy(result, inst.truth, inst.seeds) == 1.0


class TestResultCsv:
    def test_columns_and_rows(self, tmp_path):
        inst = generate_instance(SbmParams((4, 4), 1.0, 0.0), s=1, rng_seed=1)
        result = cluster(inst.graph, inst.seeds.labels())
        path = tmp_path / "result.csv"
        write_result_csv(path, result, inst.truth, inst.seeds)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "node", "true_cluster", "pred_cluster", "score_1", "score_2", "is_seed",
        ]
        assert len(rows) == 9
        assert sum(int(r[-1]) for r in rows[1:]) == 2
        for r in rows[1:]:
            assert r[1] == r[2]  # perfect recovery on disjoint blocks
