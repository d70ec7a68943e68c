"""One-vs-rest cluster assignment driver.

For each cluster k the labeled nodes define a 0/1 indicator target (1 on
seeds of cluster k, 0 on every other seed); the K TV-minimization solves
run as one batch, and every node is assigned to the cluster whose score is
largest.  A target's solve stops on a level set that meets the integer
bound (see :mod:`tvclust.solver`): its score row is then an exact optimum,
the average of the iterate's optimal level sets, 0/1 wherever the optimal
cut is unique and in between where optimal cuts disagree (a row out of
sweeps is its last iterate, clipped).  Exact ties go to the smallest
cluster index, which keeps the decoding deterministic and independent of
evaluation order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from tvclust.graphs import Graph, Partition, PartitionError, checked_int, checked_int_array
from tvclust.sbm import SeedSet
from tvclust.solver import SolveDiagnostics, SolverConfig, solve_batch


class SeedLabelError(ValueError):
    """Seed labels that are not integers or do not cover every cluster index
    1..K, or labeled node ids outside the graph."""


@dataclass(frozen=True)
class ClusteringResult:
    assignment: np.ndarray  # (N,) estimated cluster index per node, 1..K
    scores: np.ndarray  # (K, N) one solve's signal per row
    diagnostics: tuple[SolveDiagnostics, ...]  # one entry per cluster

    @property
    def num_clusters(self) -> int:
        return self.scores.shape[0]


def indicator_targets(seed_labels: dict[int, int], k: int) -> dict[int, float]:
    """Seed values for the cluster-k solve: 1 on its seeds, 0 on the rest.

    A k with no seeds yields all-zero targets; callers that cannot make
    sense of that (the full clustering driver) reject it up front.
    """
    labels = np.array(list(seed_labels.values()))
    return dict(zip(seed_labels, _indicator_rows(labels, [k])[0].tolist()))


def _indicator_rows(labels: np.ndarray, ks) -> np.ndarray:
    """(len(ks), S) targets: row j is 1.0 where labels == ks[j], else 0.0."""
    return (labels == np.asarray(ks)[:, None]).astype(np.float64)


def _check_labels(seed_labels: dict[int, int]) -> int:
    if not seed_labels:
        raise SeedLabelError("no labeled nodes given")
    present = {checked_int(c, SeedLabelError, "cluster label")
               for c in seed_labels.values()}
    k_max = max(present)
    if min(present) < 1:
        raise SeedLabelError("cluster labels must be >= 1")
    if len(present) < k_max:
        # the first gap is at most len(present) + 1, however large k_max is
        missing = next(k for k in range(1, k_max + 1) if k not in present)
        raise SeedLabelError(f"cluster {missing} of 1..{k_max} has no labeled node")
    return k_max


def cluster(
    g: Graph,
    seed_labels: dict[int, int],
    config: SolverConfig = SolverConfig(),
) -> ClusteringResult:
    """Run K independent indicator solves and decode by argmax.

    The K solves share the immutable graph and run as one batch, in which
    each row gives exactly the result of its own solve; np.argmax on the
    stacked score matrix breaks exact ties toward the smallest cluster
    index.
    """
    k_max = _check_labels(seed_labels)
    seed_ids = sorted(seed_labels)
    labels = np.array([seed_labels[i] for i in seed_ids])
    values = _indicator_rows(labels, np.arange(1, k_max + 1))
    scores, diagnostics = solve_batch(g, seed_ids, values, config)
    assignment = np.argmax(scores, axis=0) + 1
    return ClusteringResult(assignment, scores, diagnostics)


def accuracy(result: ClusteringResult, truth: Partition, seeds) -> float:
    """Fraction of unlabeled nodes assigned their true cluster.

    `seeds` is a SeedSet or any iterable of labeled node ids in
    0..N-1.  When every node is labeled there is nothing to score; that
    degenerate case returns 1.0.
    """
    if result.assignment.size != truth.num_nodes:
        raise PartitionError(
            f"partition covers {truth.num_nodes} nodes, result has "
            f"{result.assignment.size}"
        )
    seed_nodes = seeds.all_nodes if isinstance(seeds, SeedSet) else list(seeds)
    ids = checked_int_array(seed_nodes, SeedLabelError, "labeled node ids")
    if ((ids < 0) | (ids >= truth.num_nodes)).any():
        raise SeedLabelError(f"labeled node id outside 0..{truth.num_nodes - 1}")
    mask = np.ones(truth.num_nodes, dtype=bool)
    mask[ids] = False
    if not mask.any():
        return 1.0
    correct = result.assignment[mask] == truth.assignment[mask]
    return float(correct.mean())


RESULT_CSV_BASE_COLUMNS = ("node", "true_cluster", "pred_cluster")


def write_result_csv(path, result: ClusteringResult, truth: Partition, seeds) -> None:
    """Per-node results: node,true_cluster,pred_cluster,score_1..score_K,is_seed."""
    seed_nodes = set(seeds.all_nodes if isinstance(seeds, SeedSet) else seeds)
    k_max = result.num_clusters
    header = list(RESULT_CSV_BASE_COLUMNS)
    header += [f"score_{k}" for k in range(1, k_max + 1)]
    header.append("is_seed")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for node in range(truth.num_nodes):
            row = [
                node,
                int(truth.assignment[node]),
                int(result.assignment[node]),
                *[repr(float(result.scores[k, node])) for k in range(k_max)],
                int(node in seed_nodes),
            ]
            writer.writerow(row)
