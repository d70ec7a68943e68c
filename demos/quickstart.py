"""Quickstart: draw a partially labeled two-block instance and cluster it.

Run:  python3 demos/quickstart.py
"""

import numpy as np

from tvclust.clustering import accuracy, cluster
from tvclust.sbm import SbmParams, generate_instance

# A 100-node graph: two blocks of 50, dense inside (p_in = 0.5), sparse
# across (p_out = 0.025), with 5 labeled nodes per block.
params = SbmParams(cluster_sizes=(50, 50), p_in=0.5, p_out=0.025)
instance = generate_instance(params, s=5, rng_seed=20240)

print(f"instance: {instance.graph.num_nodes} nodes, "
      f"{instance.graph.num_edges} edges")
print(f"labeled nodes: {dict(instance.seeds.labels())}")

# One TV-minimization solve per cluster, argmax decode, each with the
# default sweep budget (max_iters=tvclust.solver.MAX_ITERS).
result = cluster(instance.graph, instance.seeds.labels())

acc = accuracy(result, instance.truth, instance.seeds)
print(f"accuracy over the {instance.graph.num_nodes - 10} unlabeled nodes: {acc}")

# Each score row is an exact optimum of its solve: 0/1 wherever the optimal
# cut is unique; peek at a few entries of the cluster-1 score vector.
np.set_printoptions(precision=3, suppress=True)
print("cluster-1 scores, first 8 nodes: ", result.scores[0, :8])
print("cluster-1 scores, last 8 nodes:  ", result.scores[0, -8:])
for k, diag in enumerate(result.diagnostics, start=1):
    print(f"solve k={k}: {diag.as_text()}")
