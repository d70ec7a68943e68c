"""Recovery certificates and exact oracles for TV-based clustering.

Everything here is about deciding, for a given graph and labeled nodes,
whether TV minimization provably recovers the planted clusters, and about
verifying solver output exactly:

* one exact max-flow / min-cut helper on integer arc arrays
  (:func:`min_cut`, scipy's Dinic), under everything below that needs a
  flow;
* an exact TV-minimization oracle for binary seed values, via min-cut on a
  unit-capacity network (source wired to the 1-seeds, sink to the
  0-seeds);
* the algebraic connectivity (second-smallest Laplacian eigenvalue) of
  cluster subgraphs and the spectral cut bound
  (1 - 1/N) * lambda2 >= 2 * boundary_edge_count;
* the well-connectedness certificate (every +-2 boundary-weight pattern
  must be routable to the labeled node with unit capacities on
  intra-cluster edges) and the subset-cut conditions (per-subset and
  uniform), all read off copies of one flow network per cluster; every
  cluster's network is cut out of the graph in one pass over its edges.
  The copy with exit v decides whether v is well connected, so the
  per-subset condition holds iff every node of the cluster is;
* closed-form concentration bounds on the boundary size and the spectral
  gap, and the model-parameter recovery condition
  S * p_in / p_out >= beta * n_k * (N - n_k) with its failure bound.

Every check runs in polynomial time and has no cluster-size limit; the
copies of every cluster share max-flows of bounded size (FLOW_ARC_CHUNK
arcs).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from tvclust.graphs import (
    DENSE_CAP,
    Graph,
    Partition,
    PartitionError,
    checked_int,
    laplacian,
)
from tvclust.sbm import SbmInstance, SbmParams

class OracleInputError(ValueError):
    """Seed values passed to the min-cut oracle are not all binary."""


class CapacityRangeError(ValueError):
    """An arc capacity is negative or does not fit scipy's int32 max-flow."""


class ConditionParameterError(ValueError):
    """A concentration constant alpha or beta that is not finite and positive,
    or a seed count s that is not a positive integer."""


def _check_condition_parameter(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ConditionParameterError(f"{name}={value} must be finite and positive")


# ---------------------------------------------------------------------------
# Exact max-flow / min-cut
# ---------------------------------------------------------------------------

INT32_MAX = int(np.iinfo(np.int32).max)


def _max_flow(num_nodes: int, tails, heads, caps, source: int, sink: int):
    """scipy's Dinic max-flow on arcs tails -> heads: (capacity matrix, result).

    Parallel arcs add their capacities; every capacity must fit in int32.
    """
    caps = np.asarray(caps, dtype=np.int64)
    if caps.size and (caps.min() < 0 or caps.max() > INT32_MAX):
        raise CapacityRangeError(
            f"capacities span {caps.min()}..{caps.max()}, outside 0..{INT32_MAX}"
        )
    cap = scipy.sparse.csr_matrix(
        (caps.astype(np.int32), (np.asarray(tails), np.asarray(heads))),
        shape=(num_nodes, num_nodes),
    )
    return cap, maximum_flow(cap, source, sink, method="dinic")


def min_cut(num_nodes: int, tails, heads, caps, source: int, sink: int):
    """Maximum flow and minimum cut of the network with arcs tails -> heads.

    Returns (value, source_side, unique).  `source_side` is a boolean mask
    of the nodes reachable from the source in the residual network
    cap - flow (the minimal minimum cut).  `unique` is True iff the minimum
    cut is unique: the minimal source side is then the complement of the
    nodes that can still reach the sink.  Parallel arcs add their
    capacities.  An unbounded arc takes a capacity above the total of the
    finite ones; every capacity must fit in int32.
    """
    cap, flow = _max_flow(num_nodes, tails, heads, caps, source, sink)
    residual = (cap - flow.flow) > 0
    source_side = np.zeros(num_nodes, dtype=bool)
    source_side[breadth_first_order(residual, source, return_predecessors=False)] = True
    sink_side = np.zeros(num_nodes, dtype=bool)
    sink_side[breadth_first_order(residual.T, sink, return_predecessors=False)] = True
    return int(flow.flow_value), source_side, bool((source_side != sink_side).all())


# ---------------------------------------------------------------------------
# Exact TV minimization via max-flow / min-cut
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleResult:
    optimal_tv: int
    signal: np.ndarray  # one optimal binary completion
    cut_unique: bool  # True iff the minimum cut (hence the optimizer) is unique


def mincut_tv_oracle(g: Graph, seed_values: dict) -> OracleResult:
    """Exact minimum TV over all completions of binary seed values.

    Builds a unit-capacity arc pair per undirected edge, wires a
    super-source to every 1-seed and every 0-seed to a super-sink with
    unbounded arcs, and reads the optimum off the max flow.  The returned
    signal is the indicator of the minimal source side, an exact
    minimizer.  With seeds of only one value the optimum is 0 with a
    constant signal.
    """
    ones, zeros = [], []
    for node, value in seed_values.items():
        if value == 1.0:
            ones.append(int(node))
        elif value == 0.0:
            zeros.append(int(node))
        else:
            raise OracleInputError(f"seed value {value!r} at node {node} not in {{0, 1}}")
    if not ones or not zeros:
        level = 1.0 if ones else 0.0
        return OracleResult(0, np.full(g.num_nodes, level), True)
    n = g.num_nodes
    source, sink = n, n + 1
    unbounded = 2 * g.num_edges + 1
    tails = np.concatenate([g.heads, g.tails, np.full(len(ones), source), zeros])
    heads = np.concatenate([g.tails, g.heads, ones, np.full(len(zeros), sink)])
    caps = np.concatenate(
        [np.ones(2 * g.num_edges, dtype=np.int64),
         np.full(len(ones) + len(zeros), unbounded)]
    )
    value, side, unique = min_cut(n + 2, tails, heads, caps, source, sink)
    return OracleResult(value, side[:n].astype(np.float64), unique)


# ---------------------------------------------------------------------------
# Algebraic connectivity
# ---------------------------------------------------------------------------

def algebraic_connectivity(lap) -> float:
    """Second-smallest eigenvalue of a graph Laplacian.

    Dense symmetric eigendecomposition up to DENSE_CAP nodes, Lanczos
    iteration in shift-invert mode beyond, from a start vector fixed by n so
    that every run gives the same digits.  Eigenvalues indistinguishable
    from zero at working precision are snapped to exactly 0.0, so a
    disconnected graph reports exactly 0 (any true nonzero algebraic
    connectivity is orders of magnitude above the snap threshold).
    """
    if not scipy.sparse.issparse(lap):
        lap = np.asarray(lap, dtype=np.float64)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError(f"Laplacian must be square, got {lap.shape}")
    n = lap.shape[0]
    sym_defect = abs(lap - lap.T).max() if n else 0.0
    if sym_defect > 0:
        raise ValueError(f"Laplacian not symmetric (defect {sym_defect})")
    if n < 2:
        return 0.0
    if n <= DENSE_CAP:
        dense = lap.toarray() if scipy.sparse.issparse(lap) else lap
        second = float(np.linalg.eigvalsh(dense)[1])
    else:
        sparse = scipy.sparse.csc_matrix(lap)
        v0 = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        # shift slightly negative so the singular Laplacian can be factorized
        vals = scipy.sparse.linalg.eigsh(
            sparse, k=2, sigma=-1e-3, which="LM", v0=v0, return_eigenvectors=False
        )
        second = float(np.sort(vals)[1])
    zero_snap = 1e-12 * max(n, 1)
    return 0.0 if abs(second) <= zero_snap else second


@dataclass(frozen=True)
class SpectralCutBound:
    lhs: float  # (1 - 1/N) * lambda2 of the cluster subgraph
    rhs: float  # 2 * boundary_edge_count
    holds: bool
    lambda2: float


def spectral_cut_bound_check(
    cluster_subgraph: Graph, boundary_edges: int, n_total: int
) -> SpectralCutBound:
    """Check (1 - 1/N) * lambda2 >= 2 * boundary_edges for one cluster.

    N is the full graph's node count, as printed in the paper.  lambda2
    comes from the dense Laplacian up to DENSE_CAP nodes, else a sparse one.
    """
    g = cluster_subgraph
    if g.num_nodes <= DENSE_CAP:
        lap = laplacian(g)
    else:
        diag = np.arange(g.num_nodes)
        lap = scipy.sparse.csc_matrix(
            (np.concatenate([-np.ones(2 * g.num_edges), g.degrees.astype(np.float64)]),
             (np.concatenate([g.heads, g.tails, diag]),
              np.concatenate([g.tails, g.heads, diag]))),
            shape=(g.num_nodes, g.num_nodes),
        )
    lam = algebraic_connectivity(lap)
    lhs = (1.0 - 1.0 / int(n_total)) * lam
    rhs = 2.0 * int(boundary_edges)
    return SpectralCutBound(lhs, rhs, lhs >= rhs, lam)


# ---------------------------------------------------------------------------
# Subset-cut conditions
# ---------------------------------------------------------------------------

# Arcs in one max-flow over copies of cluster networks; the copies beyond it
# go to the next flow, so memory stays bounded for any cluster size.
FLOW_ARC_CHUNK = 1 << 16


@dataclass(frozen=True)
class SubsetCutResult:
    # every nonempty proper subset S of the cluster satisfies
    # cut(S) >= 2 * |S ∩ boundary|
    per_subset_holds: bool
    # every nonempty subset avoiding the labeled node satisfies the uniform
    # bound cut(S) >= 2 * |boundary|
    uniform_holds: bool


class _ClusterNetwork:
    """Cluster k cut out of the graph, the one place every certificate flow is
    built; :meth:`of_every_cluster` cuts every cluster in one pass.

    `sub` is the subgraph induced by `members` (original ids, ascending;
    node i of `sub` is members[i]) with its edges in the graph's order,
    `boundary` the positions in it of the boundary nodes B, and
    `boundary_edges` the number of edges with one end in the cluster.  A
    copy of the network is a disjoint copy of `sub` with unit arcs both
    ways on every edge (`tails` -> `heads`), entry arcs from a source and
    one arc of capacity demand = 2|B| from its exit node to a sink.  Copies
    of any clusters share one source and sink in :func:`_run_flow`.
    """

    def __init__(self, cluster, members, sub, boundary, boundary_edges):
        self.cluster, self.members, self.sub = cluster, members, sub
        self.boundary, self.boundary_edges = boundary, boundary_edges
        self.demand = 2 * boundary.size
        self.tails = np.concatenate([sub.heads, sub.tails])
        self.heads = np.concatenate([sub.tails, sub.heads])

    @classmethod
    def of_every_cluster(cls, g: Graph, p: Partition) -> list[_ClusterNetwork]:
        """The networks of clusters 1..K from one pass over the edges.

        A stable argsort of the assignment lists each cluster's members by
        ascending id, so a node's position, its rank in its cluster, keeps
        the order of ids and every edge keeps head < tail: the graph's
        checked edges need no new check.  A stable sort of the inner edges
        by cluster keeps their order.
        """
        if p.num_nodes != g.num_nodes:
            raise PartitionError(
                f"partition covers {p.num_nodes} nodes, graph has {g.num_nodes}"
            )
        end_clusters, sizes = p.assignment[g.edges], p.cluster_sizes
        cross = end_clusters[:, 0] != end_clusters[:, 1]
        on_boundary = np.zeros(g.num_nodes, dtype=bool)
        on_boundary[g.edges[cross]] = True
        crossing = np.bincount(end_clusters[cross].ravel(), minlength=sizes.size + 1)
        order = np.argsort(p.assignment, kind="stable")
        node_ends = np.cumsum(sizes)
        rank = np.empty(g.num_nodes, dtype=np.int32)
        rank[order] = np.arange(g.num_nodes) - np.repeat(node_ends - sizes, sizes)
        inner = np.flatnonzero(~cross)
        inner = inner[np.argsort(end_clusters[inner, 0], kind="stable")]
        inner_sizes = np.bincount(end_clusters[inner, 0], minlength=sizes.size + 1)
        members = np.split(order, node_ends[:-1])
        flags = np.split(on_boundary[order], node_ends[:-1])
        subs = np.split(rank[g.edges[inner]], np.cumsum(inner_sizes[1:-1]))
        return [
            cls(k, nodes, Graph(nodes.size, sub), np.flatnonzero(flag), int(crossing[k]))
            for k, (nodes, sub, flag) in enumerate(zip(members, subs, flags), 1)
        ]

    def position(self, labeled_node) -> int:
        """Position of a labeled node in `sub`; ValueError for a non-member."""
        if isinstance(labeled_node, (int, np.integer)):
            pos = int(np.searchsorted(self.members, labeled_node))
            if pos < self.members.size and self.members[pos] == labeled_node:
                return pos
        raise ValueError(
            f"labeled node {labeled_node} is not in cluster {self.cluster}"
        )

    def exit_copies(self, exits: np.ndarray, keep: int = 0) -> _Copies:
        """Per-subset copies: capacity 2 into each boundary node, exit v for
        each v in `exits`; copy v carries 2|B| iff v is well connected."""
        entries = np.broadcast_to(self.boundary, (exits.size, self.boundary.size))
        return _Copies(self, entries, 2, exits, keep)

    def menger_copies(self, labeled: int) -> _Copies:
        """Uniform copies: 2|B| into u, exit the labeled node, for every other
        u; copy u carries 2|B| iff lambda(u, labeled) >= 2|B|."""
        others = np.delete(np.arange(self.sub.num_nodes), labeled)
        return _Copies(self, others[:, None], self.demand, np.full(others.size, labeled))


class _Copies:
    """Copies of one cluster network that decide one condition together.

    Copy c has an arc of capacity `entry_cap` into each node of entries[c]
    (together the demand) and exits at exits[c]; the condition `holds` iff
    every copy carries the demand.  The first `keep` copies always run and
    `ok` gives their verdicts; once a copy is short the others are dropped.
    """

    def __init__(self, net, entries, entry_cap, exits, keep=0):
        self.net, self.entries, self.entry_cap = net, entries, entry_cap
        self.exits, self.keep = exits, keep
        self.arcs = net.tails.size + entries.shape[1] + 1  # per copy
        self.ok = np.ones(exits.size, dtype=bool)
        self.holds = True


def _decide(conditions) -> None:
    """Run the copies of every condition in shared max-flows.

    Kept copies of every condition are issued first, then the others, each
    condition's in order; a flow takes copies until the next one would
    pass FLOW_ARC_CHUNK arcs (it always takes one), so small clusters share
    one flow.  A condition's copies not yet issued are dropped once one of
    its copies is short.  A network with no boundary needs no flow: every
    copy carries its empty demand.  Every flow is written into one set of
    arc arrays, allocated once per call, so a check of many flows does not
    fault in fresh pages for each of them.
    """
    pending = [(c, 0, c.keep) for c in conditions]
    pending += [(c, c.keep, c.exits.size) for c in conditions]
    total = sum(c.arcs * c.exits.size for c in conditions)
    widest = max((c.arcs for c in conditions), default=0)
    buffer = np.empty((3, max(widest, min(total, FLOW_ARC_CHUNK))), dtype=np.int64)
    batch, arcs = [], 0
    for copies, lo, hi in pending:
        if not copies.net.demand:
            continue
        while lo < hi and (lo < copies.keep or copies.holds):
            take = min(hi - lo, max(0, FLOW_ARC_CHUNK - arcs) // copies.arcs)
            if not take:
                if batch:
                    _run_flow(batch, buffer)
                    batch, arcs = [], 0
                    continue
                take = 1
            batch.append((copies, lo, lo + take))
            arcs += take * copies.arcs
            lo += take
    if batch:
        _run_flow(batch, buffer)


def _run_flow(batch, buffer) -> None:
    """One max-flow over the copies lo..hi of each (copies, lo, hi) in batch.

    The arcs' tails, heads and capacities are written into the rows of
    `buffer`: each copy's inner arcs, then entry arcs, then exit arc.
    Copies differ in size and demand, so a copy's value is the source's
    out-flow into the nodes from its start offset on, and it is compared
    with its own network's demand.
    """
    size = sum((hi - lo) * c.net.sub.num_nodes for c, lo, hi in batch)
    source, sink = size, size + 1
    total = sum((hi - lo) * c.arcs for c, lo, hi in batch)
    tails, heads, caps = buffer[:, :total]
    starts, at, base = [], 0, 0
    for copies, lo, hi in batch:
        net, count = copies.net, hi - lo
        start = base + np.arange(count, dtype=np.int64) * net.sub.num_nodes
        entries = copies.entries[lo:hi]
        seg = slice(at, at + count * net.tails.size)
        np.add(start[:, None], net.tails, out=tails[seg].reshape(count, -1))
        np.add(start[:, None], net.heads, out=heads[seg].reshape(count, -1))
        caps[seg] = 1
        seg = slice(seg.stop, seg.stop + entries.size)
        tails[seg] = source
        np.add(start[:, None], entries, out=heads[seg].reshape(entries.shape))
        caps[seg] = copies.entry_cap
        seg = slice(seg.stop, seg.stop + count)
        np.add(start, copies.exits[lo:hi], out=tails[seg])
        heads[seg], caps[seg] = sink, net.demand
        starts.append(start)
        at, base = seg.stop, base + count * net.sub.num_nodes
    _, flow = _max_flow(size + 2, tails, heads, caps, source, sink)
    starts = np.concatenate(starts)
    out = slice(flow.flow.indptr[source], flow.flow.indptr[source + 1])
    copy = np.searchsorted(starts, flow.flow.indices[out], side="right") - 1
    value = np.bincount(copy, weights=flow.flow.data[out], minlength=starts.size)
    at = 0
    for copies, lo, hi in batch:
        ok = value[at:at + hi - lo] == copies.net.demand
        copies.ok[lo:hi] = ok
        copies.holds &= bool(ok.all())
        at += hi - lo


def subset_cut_check(
    g: Graph, p: Partition, k: int, labeled_node: int
) -> SubsetCutResult:
    """Decide the cut conditions that certify well-connectedness by max-flow.

    Per-subset condition: cut(S) >= 2|S ∩ B| for every nonempty proper S
    of cluster k, with B its boundary nodes.  Equivalently, for every node
    v, the minimum over S avoiding v of cut(S) + 2|B - S| is 2|B| (S empty
    attains it).  That minimum is the min cut of the cluster network's
    copy with exit v, the very flow that decides :func:`well_connected`
    for v, so the condition holds iff every node of the cluster is well
    connected; it is decided over the n copies.

    Uniform condition: cut(S) >= 2|B| for every nonempty S avoiding the
    labeled node.  By Menger's theorem this is min over u of the edge
    connectivity lambda(u, labeled) >= 2|B|, the cluster's global edge
    connectivity, whatever the labeled node.  It is decided over the n - 1
    copies that send 2|B| from u to the labeled node.

    Both conditions' copies share max-flows of at most FLOW_ARC_CHUNK arcs
    (one flow for a small cluster), and a condition stops at its first
    short copy; no cluster size is too large to decide.
    """
    k = p._check_k(k)
    net = _ClusterNetwork.of_every_cluster(g, p)[k - 1]
    labeled = net.position(labeled_node)
    per_subset = net.exit_copies(np.arange(net.sub.num_nodes))
    uniform = net.menger_copies(labeled)
    _decide([per_subset, uniform])
    return SubsetCutResult(per_subset.holds, uniform.holds)


# ---------------------------------------------------------------------------
# Well-connectedness certificate
# ---------------------------------------------------------------------------

def well_connected(g: Graph, p: Partition, k: int, labeled_node: int) -> bool:
    """Certify that the labeled node is well connected to cluster k's boundary.

    For every choice of boundary weights in {-2, +2} there must exist a
    flow on cluster k's induced subgraph, |flow| <= 1 on every edge, that
    takes each weight into (+2) or out of (-2) its boundary node and
    balances at the labeled node.  The labeled node's own weight is free,
    so patterns range over the other boundary nodes B'.

    By Gale's and Hoffman's feasibility theorem a pattern sigma is routable
    iff |sigma(S)| <= cut(S) for every node set S avoiding the labeled
    node.  The all-+2 pattern maximizes |sigma(S)| for every S at once, so
    the certificate holds iff 2|B'| units can flow from B' to the labeled
    node.  That is the cluster network's per-subset copy with the labeled
    node as exit (see :func:`subset_cut_check`): a capacity-2 source arc
    into each boundary node, the labeled node's own arc passing straight
    to the sink.
    """
    k = p._check_k(k)
    net = _ClusterNetwork.of_every_cluster(g, p)[k - 1]
    copy = net.exit_copies(np.array([net.position(labeled_node)]))
    _decide([copy])
    return copy.holds


# ---------------------------------------------------------------------------
# Concentration bounds and the model-parameter recovery condition
# ---------------------------------------------------------------------------

def boundary_concentration_bound(
    n_k: int, n_total: int, p_out: float, alpha: float
) -> float:
    """Bound on P{boundary edge count >= 2 p_out n_k (N - n_k)}."""
    if not 0.0 <= p_out <= 1.0:
        raise ValueError(f"p_out={p_out} outside [0, 1]")
    _check_condition_parameter("alpha", alpha)
    if not 1 <= n_k <= n_total:
        raise ValueError(f"need 1 <= n_k <= n_total, got {n_k}, {n_total}")
    return math.exp(-p_out * n_k * (n_total - n_k) * alpha)


def spectral_concentration_bound(n_k: int, p_in: float) -> float:
    """Bound on P{lambda2 of a cluster <= p_in n_k / 2}; raw, may exceed 1."""
    if not 0.0 <= p_in <= 1.0:
        raise ValueError(f"p_in={p_in} outside [0, 1]")
    if n_k < 1:
        raise ValueError(f"n_k={n_k} must be >= 1")
    return (n_k - 1) * 0.9 ** (p_in * n_k / 2.0)


@dataclass(frozen=True, slots=True)
class ClusterCondition:
    cluster: int
    condition_lhs: float  # S * p_in / p_out (inf when p_out == 0)
    condition_rhs: float  # beta * n_k * (N - n_k)
    condition_holds: bool
    boundary_term: float  # boundary concentration term (0 if no cross pairs)
    spectral_term: float  # spectral concentration term (raw)


@dataclass(frozen=True)
class RecoveryConditionReport:
    clusters: tuple[ClusterCondition, ...]
    failure_bound_raw: float
    failure_bound_clipped: float
    alpha: float
    beta: float

    @property
    def all_conditions_hold(self) -> bool:
        return all(c.condition_holds for c in self.clusters)


def recovery_condition_report(
    params: SbmParams, s: int, alpha: float = 0.1, beta: float = 1e-3
) -> RecoveryConditionReport:
    """Evaluate the parameter condition and failure bound for every cluster.

    With p_out = 0 the ratio is infinite and the condition trivially
    satisfiable.  Clusters with no possible cross pairs (K = 1) contribute
    no boundary term, only the spectral one.
    """
    _check_condition_parameter("alpha", alpha)
    _check_condition_parameter("beta", beta)
    s = checked_int(s, ConditionParameterError, "s")
    if s < 1:
        raise ConditionParameterError(f"s={s} must be >= 1")
    n_total = params.num_nodes
    lhs = math.inf if params.p_out == 0 else s * params.p_in / params.p_out
    rows = []
    total = 0.0
    for k, n_k in enumerate(params.cluster_sizes, start=1):
        rhs = beta * n_k * (n_total - n_k)
        cross_pairs = n_k * (n_total - n_k)
        boundary_term = (
            boundary_concentration_bound(n_k, n_total, params.p_out, alpha)
            if cross_pairs > 0
            else 0.0
        )
        spectral_term = spectral_concentration_bound(n_k, params.p_in)
        rows.append(
            ClusterCondition(k, lhs, rhs, lhs >= rhs, boundary_term, spectral_term)
        )
        total += boundary_term + spectral_term
    return RecoveryConditionReport(
        tuple(rows), total, min(total, 1.0), alpha, beta
    )


# ---------------------------------------------------------------------------
# Whole-instance report
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ClusterChecks:
    cluster: int
    size: int
    boundary_node_count: int
    boundary_edge_count: int
    lambda2: float
    spectral_cut_bound_lhs: float
    spectral_cut_bound_rhs: float
    spectral_cut_bound_holds: bool
    subset_cut_holds: bool
    wellconnected_holds: bool
    uniform_cut_by_seed: tuple[tuple[int, bool], ...]
    wellconnected_by_seed: tuple[tuple[int, bool], ...]
    condition: ClusterCondition


@dataclass(frozen=True, slots=True)
class AnalysisReport:
    clusters: tuple[ClusterChecks, ...]
    failure_bound_raw: float
    failure_bound_clipped: float
    alpha: float
    beta: float


def analyze_instance(
    instance: SbmInstance, alpha: float = 0.1, beta: float = 1e-3
) -> AnalysisReport:
    """Run every desk-scale certificate on one instance.

    Every cluster's flow network comes from one pass over the edges (see
    :meth:`_ClusterNetwork.of_every_cluster`) and gives two conditions.
    The per-subset one holds iff every node of the cluster is well
    connected; its copies with the seeds as exits always run and give every
    per-seed well-connectedness verdict, and the cluster-level flag is True
    when at least one seed is certified (a single certified seed per
    cluster is what the exact-recovery guarantee needs).  The uniform
    condition is the cluster's edge connectivity against 2|B|, decided once
    and the same for every seed.  Every cluster's copies share max-flows,
    seed copies first (see :func:`_decide`): a small instance is one flow,
    and a condition with a short copy drops its copies not yet issued, so a
    failing seed decides the per-subset condition with no further flow.
    The spectral check reuses the network's subgraph and boundary edge count.
    """
    g, truth = instance.graph, instance.truth
    groups = instance.seeds.per_cluster
    # each cluster's condition counts its own seeds; the failure bound does
    # not depend on the seed count
    conditions = {
        s: recovery_condition_report(instance.params, s, alpha, beta)
        for s in {len(seeds_k) for seeds_k in groups}
    }
    nets = _ClusterNetwork.of_every_cluster(g, truth)
    pairs = []
    for net, seeds_k in zip(nets, groups):
        seats = np.array([net.position(i) for i in seeds_k])
        others = np.ones(net.sub.num_nodes, dtype=bool)
        others[seats] = False
        pairs.append((
            net.exit_copies(
                np.concatenate([seats, np.flatnonzero(others)]), keep=seats.size
            ),
            net.menger_copies(seats[0]),
        ))
    _decide([copies for pair in pairs for copies in pair])
    rows = []
    for net, seeds_k, (per_subset, uniform) in zip(nets, groups, pairs):
        seed_flags = per_subset.ok[:len(seeds_k)]
        bound = spectral_cut_bound_check(net.sub, net.boundary_edges, g.num_nodes)
        rows.append(
            ClusterChecks(
                cluster=net.cluster,
                size=net.members.size,
                boundary_node_count=net.boundary.size,
                boundary_edge_count=net.boundary_edges,
                lambda2=bound.lambda2,
                spectral_cut_bound_lhs=bound.lhs,
                spectral_cut_bound_rhs=bound.rhs,
                spectral_cut_bound_holds=bound.holds,
                subset_cut_holds=per_subset.holds,
                wellconnected_holds=bool(seed_flags.any()),
                uniform_cut_by_seed=tuple((i, uniform.holds) for i in seeds_k),
                wellconnected_by_seed=tuple(
                    (i, bool(flag)) for i, flag in zip(seeds_k, seed_flags)
                ),
                condition=conditions[len(seeds_k)].clusters[net.cluster - 1],
            )
        )
    condition = conditions[len(groups[0])]
    return AnalysisReport(
        tuple(rows),
        condition.failure_bound_raw,
        condition.failure_bound_clipped,
        alpha,
        beta,
    )


ANALYSIS_CSV_COLUMNS = (
    "scope",
    "size",
    "boundary_node_count",
    "boundary_edge_count",
    "lambda2",
    "spectral_cut_bound_lhs",
    "spectral_cut_bound_rhs",
    "spectral_cut_bound_holds",
    "subset_cut_holds",
    "wellconnected_holds",
    "condition_lhs",
    "condition_rhs",
    "condition_holds",
    "failure_bound_raw",
    "failure_bound_clipped",
    "alpha",
    "beta",
)


def _flag(value: bool) -> str:
    return "true" if value else "false"


def write_analysis_csv(path, report: AnalysisReport) -> None:
    """One row per cluster plus a `global` row with the failure bound."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ANALYSIS_CSV_COLUMNS)
        for row in report.clusters:
            writer.writerow(
                [
                    row.cluster,
                    row.size,
                    row.boundary_node_count,
                    row.boundary_edge_count,
                    repr(row.lambda2),
                    repr(row.spectral_cut_bound_lhs),
                    repr(row.spectral_cut_bound_rhs),
                    _flag(row.spectral_cut_bound_holds),
                    _flag(row.subset_cut_holds),
                    _flag(row.wellconnected_holds),
                    repr(row.condition.condition_lhs),
                    repr(row.condition.condition_rhs),
                    _flag(row.condition.condition_holds),
                    "", "", "", "",
                ]
            )
        writer.writerow(
            ["global"] + [""] * 12
            + [
                repr(report.failure_bound_raw),
                repr(report.failure_bound_clipped),
                repr(report.alpha),
                repr(report.beta),
            ]
        )


def format_analysis_text(report: AnalysisReport) -> str:
    lines = []
    for row in report.clusters:
        lines.append(
            f"cluster {row.cluster}: size={row.size} "
            f"boundary_nodes={row.boundary_node_count} "
            f"boundary_edges={row.boundary_edge_count} lambda2={row.lambda2:.6g}"
        )
        lines.append(
            f"  spectral cut bound: lhs={row.spectral_cut_bound_lhs:.6g} "
            f"rhs={row.spectral_cut_bound_rhs:.6g} "
            f"holds={_flag(row.spectral_cut_bound_holds)}"
        )
        lines.append(f"  subset cut condition: {_flag(row.subset_cut_holds)}")
        lines.append(f"  well connected: {_flag(row.wellconnected_holds)}")
        for node, flag in row.wellconnected_by_seed:
            lines.append(f"    seed {node}: well_connected={_flag(flag)}")
        for node, flag in row.uniform_cut_by_seed:
            lines.append(f"    seed {node}: uniform_cut={_flag(flag)}")
        cond = row.condition
        lines.append(
            f"  parameter condition: lhs={cond.condition_lhs:.6g} "
            f"rhs={cond.condition_rhs:.6g} holds={_flag(cond.condition_holds)}"
        )
    lines.append(
        f"global: failure_bound_raw={report.failure_bound_raw:.6g} "
        f"clipped={report.failure_bound_clipped:.6g} "
        f"alpha={report.alpha:g} beta={report.beta:g}"
    )
    return "\n".join(lines) + "\n"
