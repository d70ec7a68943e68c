import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from tvclust.graphs import build_graph, contiguous_partition

# Two dense 4-node blocks joined by a single bridge edge {3, 4}.
# Nodes 0..3 form block one, nodes 4..7 block two; degrees (2,3,3,3,3,3,3,2).
BRIDGE_EDGES = [
    (0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
    (3, 4),
    (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
]


@pytest.fixture
def bridge_graph():
    return build_graph(8, BRIDGE_EDGES)


@pytest.fixture
def bridge_partition():
    return contiguous_partition([4, 4])


def random_graph(rng, n, p):
    """Erdos-Renyi draw used as a small-instance generator in tests."""
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    return build_graph(n, np.column_stack([iu[mask], ju[mask]]))


def incidence_matrix(g):
    """E x N signed incidence matrix: +1 at each edge's head, -1 at its tail."""
    d = np.zeros((g.num_edges, g.num_nodes))
    rows = np.arange(g.num_edges)
    d[rows, g.heads] = 1.0
    d[rows, g.tails] = -1.0
    return d


def round_to_indicator(x):
    """Threshold at 1/2; exact halves go to 0 (deterministic tie rule)."""
    return (np.asarray(x) > 0.5).astype(float)


def is_connected(g):
    adjacency = scipy.sparse.coo_matrix(
        (np.ones(g.num_edges), (g.heads, g.tails)), shape=(g.num_nodes, g.num_nodes)
    )
    return connected_components(adjacency, directed=False, return_labels=False) == 1


def random_connected_graph(rng, n, p, max_tries=1000):
    for _ in range(max_tries):
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g
    raise RuntimeError("failed to draw a connected graph")


def cluster_view(g, p, k):
    """Cluster k cut out of g with sets, one edge at a time: the reference
    for the certificate networks.

    Returns (members, edges, boundary, boundary_edges): the cluster's ids
    ascending, the edges with both ends inside as (position, position)
    pairs in the graph's order, the positions of the members with a
    neighbour outside, and the number of edges with exactly one end inside.
    """
    members = [i for i in range(g.num_nodes) if p.assignment[i] == k]
    position = {node: i for i, node in enumerate(members)}
    edges, boundary, boundary_edges = [], set(), 0
    for head, tail in g.edges.tolist():
        inside = [node for node in (head, tail) if node in position]
        if len(inside) == 2:
            edges.append((position[head], position[tail]))
        elif inside:
            boundary.add(position[inside[0]])
            boundary_edges += 1
    return members, edges, sorted(boundary), boundary_edges
