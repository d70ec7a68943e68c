"""Undirected graphs with a canonical edge orientation.

Every undirected edge {i, j} is stored once as the oriented pair
(head, tail) = (min(i, j), max(i, j)).  With this convention the signed
incidence matrix D (one row per edge, +1 at the head, -1 at the tail)
satisfies D.T @ D == L, the combinatorial Laplacian, and the total
variation of a node signal x is the L1 norm of D @ x.

Node ids are 0-based contiguous integers.  Cluster indices in
:class:`Partition` are 1-based.  All objects are immutable after
construction (backing arrays are marked read-only) and every function
here is pure, so everything can be shared freely across threads.
"""

from __future__ import annotations

import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Dense Laplacian matrices are refused above this node count; total
# variation streams over the edge list and the spectral check goes sparse.
DENSE_CAP = 2000


class GraphInputError(ValueError):
    """Base class for invalid graph construction inputs."""


class NodeIndexError(GraphInputError):
    """A node id lies outside 0..num_nodes-1."""


class SelfLoopError(GraphInputError):
    """An edge joins a node to itself."""


class DuplicateEdgeError(GraphInputError):
    """The same undirected edge appears more than once."""


class SignalLengthError(ValueError):
    """A node signal's length does not match the graph's node count."""


class PartitionError(ValueError):
    """A cluster assignment violates the partition invariants."""


class DenseCapExceededError(ValueError):
    """Dense matrix requested for a graph above DENSE_CAP nodes."""


def checked_int(value, error: type[ValueError], name: str) -> int:
    """`value` as an int; anything but an integer-valued number (2.0 passes,
    2.5 does not) raises `error` naming `name`."""
    try:
        if value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{name} must be an integer, got {value!r}")


def checked_int_array(values, error: type[ValueError], name: str) -> np.ndarray:
    """`values` as an int64 array; a value that is not integer-valued raises
    `error` naming `name`.  Integer dtypes pass without a check."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        if a.dtype.kind != "f":
            raise error(f"{name} must be integers, got dtype {a.dtype}")
        bad = ~np.isfinite(a) | (a % 1 != 0)
        if bad.any():
            raise error(f"{name} must be integers, got {a[bad][0]}")
    return a.astype(np.int64, copy=False)


class Graph:
    """Immutable undirected graph with oriented edges (head < tail).

    Build one with :func:`build_graph`, which validates the edges.  Code
    whose edges are oriented, distinct and in range by construction (the
    SBM generator, cluster subgraphs) passes an (E, 2) int32 array directly.

    Attributes
    ----------
    num_nodes : int
    edges : (E, 2) int32 array, row e = (head, tail) with head < tail, in
        input order (int32 halves the storage; ids stay below 2**31)
    degrees : (N,) int64 array
    """

    __slots__ = ("num_nodes", "edges", "degrees")

    def __init__(self, num_nodes: int, edges: np.ndarray):
        self.num_nodes = int(num_nodes)
        self.edges = edges
        self.degrees = np.bincount(edges.ravel(), minlength=self.num_nodes)
        for arr in (edges, self.degrees):
            arr.flags.writeable = False

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def heads(self) -> np.ndarray:
        return self.edges[:, 0]

    @property
    def tails(self) -> np.ndarray:
        return self.edges[:, 1]

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def build_graph(num_nodes: int, edge_list: Iterable[Sequence[int]]) -> Graph:
    """Build a validated Graph from unordered node pairs.

    Each pair {i, j} is stored oriented as (min, max), in input order.
    Out-of-range ids, self-loops and duplicate edges raise distinct error
    types; duplicates are treated as corrupt input rather than merged.
    """
    num_nodes = checked_int(num_nodes, GraphInputError, "num_nodes")
    if not 1 <= num_nodes <= 2**31:
        raise GraphInputError(f"num_nodes must be in 1..2**31, got {num_nodes}")
    if not isinstance(edge_list, np.ndarray):
        edge_list = list(edge_list)
    pairs = checked_int_array(edge_list, GraphInputError, "node ids")
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphInputError("edge_list must contain node pairs")
    if pairs.shape[0] > 0:
        if pairs.min() < 0 or pairs.max() >= num_nodes:
            bad = pairs[(pairs < 0).any(axis=1) | (pairs >= num_nodes).any(axis=1)]
            raise NodeIndexError(
                f"edge {tuple(bad[0])} has a node id outside 0..{num_nodes - 1}"
            )
        loops = pairs[:, 0] == pairs[:, 1]
        if loops.any():
            raise SelfLoopError(f"self-loop at node {int(pairs[loops][0, 0])}")
    oriented = np.sort(pairs, axis=1)
    codes = np.sort(oriented[:, 0] * num_nodes + oriented[:, 1])
    dup = codes[1:] == codes[:-1]
    if dup.any():
        code = int(codes[1:][dup][0])
        raise DuplicateEdgeError(
            f"duplicate edge {{{code // num_nodes}, {code % num_nodes}}}"
        )
    return Graph(num_nodes, oriented.astype(np.int32))


def _refuse_above_cap(g: Graph) -> None:
    if g.num_nodes > DENSE_CAP:
        raise DenseCapExceededError(f"{g.num_nodes} nodes exceeds dense cap {DENSE_CAP}")


def laplacian(g: Graph) -> np.ndarray:
    """N x N combinatorial Laplacian: degrees on the diagonal, -1 per edge."""
    _refuse_above_cap(g)
    lap = np.zeros((g.num_nodes, g.num_nodes))
    lap[g.heads, g.tails] = -1.0
    lap[g.tails, g.heads] = -1.0
    lap[np.diag_indices(g.num_nodes)] = g.degrees
    return lap


def total_variation(g: Graph, x: np.ndarray) -> float:
    """Sum over edges of |x_j - x_i| (edge-streaming, any graph size)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.num_nodes,):
        raise SignalLengthError(f"signal has shape {x.shape}, expected ({g.num_nodes},)")
    return float(np.abs(x[g.tails] - x[g.heads]).sum())


@dataclass(frozen=True)
class Partition:
    """Assignment of every node to one of K clusters (indices 1..K)."""

    assignment: np.ndarray  # (N,) int64 values in 1..K
    num_clusters: int

    def __post_init__(self):
        a = checked_int_array(self.assignment, PartitionError, "cluster indices")
        if a.ndim != 1 or a.size == 0:
            raise PartitionError("assignment must be a nonempty 1-d array")
        k = checked_int(self.num_clusters, PartitionError, "num_clusters")
        if k < 1:
            raise PartitionError("need at least one cluster")
        if a.min() < 1 or a.max() > k:
            raise PartitionError(f"cluster indices must lie in 1..{k}")
        sizes = np.bincount(a, minlength=k + 1)[1:]
        if (sizes == 0).any():
            empty = int(np.flatnonzero(sizes == 0)[0]) + 1
            raise PartitionError(f"cluster {empty} is empty")
        a.flags.writeable = False
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "num_clusters", k)

    @property
    def num_nodes(self) -> int:
        return self.assignment.size

    @property
    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.num_clusters + 1)[1:]

    def nodes_in(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == self._check_k(k))

    def _check_k(self, k: int) -> int:
        """`k` as an int; PartitionError unless a cluster index 1..K."""
        k = checked_int(k, PartitionError, "cluster index")
        if not 1 <= k <= self.num_clusters:
            raise PartitionError(
                f"cluster index {k} outside 1..{self.num_clusters}"
            )
        return k


def contiguous_partition(cluster_sizes: Sequence[int]) -> Partition:
    """Partition assigning the first n_1 ids to cluster 1, next n_2 to 2, ..."""
    sizes = [int(n) for n in cluster_sizes]
    if any(n < 1 for n in sizes):
        raise PartitionError("all cluster sizes must be >= 1")
    assignment = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    return Partition(assignment, len(sizes))


# ---------------------------------------------------------------------------
# File formats: edge lists and partitions as plain text
# ---------------------------------------------------------------------------

def _read_int_pairs(path, error: type[ValueError]) -> np.ndarray:
    """The two integers of every line but '#' comments and blank lines, as
    one (P, 2) int64 array.

    A line that does not hold exactly two integers raises `error`, naming
    the file and the line number.  The integers go straight into one
    buffer: a Python tuple per line costs about 100 bytes per pair.
    """
    pairs = array.array("q")
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                i, j = map(int, line.split())
            except ValueError:
                raise error(
                    f"{path}:{lineno}: expected two integers, got {line!r}"
                ) from None
            try:
                pairs.extend((i, j))
            except OverflowError:
                raise error(
                    f"{path}:{lineno}: integer outside the int64 range in {line!r}"
                ) from None
    return np.frombuffer(pairs, dtype=np.int64).reshape(-1, 2)


def read_key_values(path, error: type[ValueError]) -> dict[str, str]:
    """The `key=value` lines of a text file as a dict, split at the first
    '=' and stripped; '#' comments and blank lines are skipped, and a later
    key wins.  A line without '=' raises `error`, naming the file and the
    line number."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise error(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def read_edge_list(path, num_nodes: int | None = None) -> Graph:
    """Read a graph from a text file: one `i j` pair per line (0-based ids).

    Lines starting with '#' and blank lines are ignored.  If num_nodes is
    not given it is inferred as max id + 1.
    """
    pairs = _read_int_pairs(path, GraphInputError)
    if num_nodes is None:
        if not pairs.size:
            raise GraphInputError(f"{path}: empty edge list and no num_nodes")
        num_nodes = int(pairs.max()) + 1
    return build_graph(num_nodes, pairs)


def write_edge_list(path, g: Graph) -> None:
    with open(path, "w") as fh:
        for h, t in g.edges:
            fh.write(f"{h} {t}\n")


def read_partition(path) -> Partition:
    """Read `node_id cluster_index` lines (clusters 1-based); the ids must be
    0..P-1 for P lines, in any order, each once."""
    nodes, clusters = _read_int_pairs(path, PartitionError).T
    if not nodes.size:
        raise PartitionError(f"{path}: empty partition file")
    order = np.argsort(nodes, kind="stable")
    repeat = order[1:][nodes[order][1:] == nodes[order][:-1]]
    if repeat.size:
        node = nodes[repeat.min()]
        raise PartitionError(f"{path}: node {node} listed more than once")
    n = int(nodes.max()) + 1
    if nodes.min() < 0 or nodes.size != n:
        raise PartitionError(f"{path}: node ids must cover 0..{n - 1}")
    assignment = np.empty(n, dtype=np.int64)
    assignment[nodes] = clusters
    return Partition(assignment, int(assignment.max()))


def write_partition(path, p: Partition) -> None:
    with open(path, "w") as fh:
        for node, c in enumerate(p.assignment):
            fh.write(f"{node} {c}\n")
