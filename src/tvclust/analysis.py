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
* the subset-cut conditions (per-subset and uniform), each decided by one
  max-flow over disjoint copies of the cluster network, and the
  well-connectedness certificate (every +-2 boundary-weight pattern must be
  routable to the labeled node with unit capacities on intra-cluster
  edges), decided by one max-flow;
* closed-form concentration bounds on the boundary size and the spectral
  gap, and the model-parameter recovery condition
  S * p_in / p_out >= beta * n_k * (N - n_k) with its failure bound.

Every check runs in polynomial time and has no cluster-size limit; the
batched flows are split into chunks of bounded size (FLOW_ARC_CHUNK arcs).
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
    DENSE_CAP_DEFAULT,
    Graph,
    Partition,
    boundary_edge_count,
    boundary_nodes,
    induced_subgraph,
    laplacian,
)
from tvclust.sbm import SbmInstance, SbmParams

class OracleInputError(ValueError):
    """Seed values passed to the min-cut oracle are not all binary."""


class CapacityRangeError(ValueError):
    """An arc capacity is negative or does not fit scipy's int32 max-flow."""


# ---------------------------------------------------------------------------
# Exact max-flow / min-cut
# ---------------------------------------------------------------------------

INT32_MAX = int(np.iinfo(np.int32).max)


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
    caps = np.asarray(caps, dtype=np.int64)
    if caps.size and (caps.min() < 0 or caps.max() > INT32_MAX):
        raise CapacityRangeError(
            f"capacities span {caps.min()}..{caps.max()}, outside 0..{INT32_MAX}"
        )
    cap = scipy.sparse.csr_matrix(
        (caps.astype(np.int32), (np.asarray(tails), np.asarray(heads))),
        shape=(num_nodes, num_nodes),
    )
    flow = maximum_flow(cap, source, sink, method="dinic")
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

def algebraic_connectivity(lap, dense_cap: int = DENSE_CAP_DEFAULT) -> float:
    """Second-smallest eigenvalue of a graph Laplacian.

    Dense symmetric eigendecomposition up to `dense_cap` nodes, Lanczos
    iteration in shift-invert mode beyond.  Eigenvalues indistinguishable
    from zero at working precision are snapped to exactly 0.0, so a
    disconnected graph reports exactly 0 (any true nonzero algebraic
    connectivity is orders of magnitude above the snap threshold).
    """
    if scipy.sparse.issparse(lap):
        n = lap.shape[0]
        sym_defect = abs(lap - lap.T).max()
    else:
        lap = np.asarray(lap, dtype=np.float64)
        n = lap.shape[0]
        sym_defect = float(np.abs(lap - lap.T).max()) if n else 0.0
    if lap.shape != (n, n):
        raise ValueError(f"Laplacian must be square, got {lap.shape}")
    if sym_defect > 0:
        raise ValueError(f"Laplacian not symmetric (defect {sym_defect})")
    if n < 2:
        return 0.0
    if n <= dense_cap:
        dense = lap.toarray() if scipy.sparse.issparse(lap) else lap
        second = float(np.linalg.eigvalsh(dense)[1])
    else:
        sparse = scipy.sparse.csc_matrix(lap)
        # shift slightly negative so the singular Laplacian can be factorized
        vals = scipy.sparse.linalg.eigsh(
            sparse, k=2, sigma=-1e-3, which="LM", return_eigenvectors=False
        )
        second = float(np.sort(vals)[1])
    zero_snap = 1e-12 * max(n, 1)
    return 0.0 if abs(second) <= zero_snap else second


def algebraic_connectivity_of_graph(
    g: Graph, dense_cap: int = DENSE_CAP_DEFAULT
) -> float:
    if g.num_nodes <= dense_cap:
        return algebraic_connectivity(laplacian(g), dense_cap)
    rows = np.concatenate([g.heads, g.tails, np.arange(g.num_nodes)])
    cols = np.concatenate([g.tails, g.heads, np.arange(g.num_nodes)])
    vals = np.concatenate(
        [-np.ones(2 * g.num_edges), g.degrees.astype(np.float64)]
    )
    lap = scipy.sparse.csc_matrix(
        (vals, (rows, cols)), shape=(g.num_nodes, g.num_nodes)
    )
    return algebraic_connectivity(lap, dense_cap)


@dataclass(frozen=True)
class SpectralCutBound:
    lhs: float  # (1 - 1/N) * lambda2 of the cluster subgraph
    rhs: float  # 2 * boundary_edge_count
    holds: bool
    lambda2: float


def spectral_cut_bound_check(
    cluster_subgraph: Graph,
    boundary_edges: int,
    n_total: int,
    use_cluster_size: bool = False,
) -> SpectralCutBound:
    """Check (1 - 1/N) * lambda2 >= 2 * boundary_edges for one cluster.

    N is the full graph's node count as printed; `use_cluster_size`
    substitutes the cluster's own size for sensitivity reporting.
    """
    lam = algebraic_connectivity_of_graph(cluster_subgraph)
    n = cluster_subgraph.num_nodes if use_cluster_size else int(n_total)
    lhs = (1.0 - 1.0 / n) * lam
    rhs = 2.0 * int(boundary_edges)
    return SpectralCutBound(lhs, rhs, lhs >= rhs, lam)


# ---------------------------------------------------------------------------
# Subset-cut conditions
# ---------------------------------------------------------------------------

# Arcs in one max-flow over copies of a cluster network; the copies beyond
# it go to the next flow, so memory stays bounded for any cluster size.
FLOW_ARC_CHUNK = 1 << 16


@dataclass(frozen=True)
class SubsetCutResult:
    # every nonempty proper subset S of the cluster satisfies
    # cut(S) >= 2 * |S ∩ boundary|
    per_subset_holds: bool
    # every nonempty subset avoiding the labeled node satisfies the uniform
    # bound cut(S) >= 2 * |boundary|
    uniform_holds: bool


def _copies_saturate(
    sub: Graph, entries: np.ndarray, entry_cap: int, exits: np.ndarray, demand: int
) -> bool:
    """Whether every copy of the cluster network carries `demand` units.

    Copy c is a disjoint copy of `sub` with unit arcs both ways on every
    edge, an arc of capacity `entry_cap` from a shared source into each
    node of entries[c] (their capacities total `demand`) and an arc of
    capacity `demand` from exits[c] to a shared sink.  No copy carries
    more than `demand`, so a chunk of C copies saturates iff its one
    max-flow has value C * demand.  Chunks hold at most FLOW_ARC_CHUNK
    arcs (at least one copy); the first chunk short of its total decides.
    """
    n, width = sub.num_nodes, entries.shape[1]
    per_chunk = max(1, FLOW_ARC_CHUNK // (2 * sub.num_edges + width + 1))
    tails = np.concatenate([sub.heads, sub.tails])
    heads = np.concatenate([sub.tails, sub.heads])
    for lo in range(0, exits.size, per_chunk):
        count = min(per_chunk, exits.size - lo)
        offset = np.arange(count, dtype=np.int64) * n
        source, sink = count * n, count * n + 1
        chunk_tails = np.concatenate([
            (offset[:, None] + tails).ravel(),
            np.full(count * width, source),
            exits[lo:lo + count] + offset,
        ])
        chunk_heads = np.concatenate([
            (offset[:, None] + heads).ravel(),
            (offset[:, None] + entries[lo:lo + count]).ravel(),
            np.full(count, sink),
        ])
        caps = np.concatenate([
            np.ones(count * tails.size, dtype=np.int64),
            np.full(count * width, entry_cap),
            np.full(count, demand),
        ])
        value, _, _ = min_cut(
            count * n + 2, chunk_tails, chunk_heads, caps, source, sink
        )
        if value < count * demand:
            return False
    return True


def subset_cut_check(
    g: Graph, p: Partition, k: int, labeled_node: int
) -> SubsetCutResult:
    """Decide the cut conditions that certify well-connectedness by max-flow.

    Per-subset condition: cut(S) >= 2|S ∩ B| for every nonempty proper S
    of cluster k, with B its boundary nodes.  Equivalently, for every node
    v, the minimum over S avoiding v of cut(S) + 2|B - S| is 2|B| (S empty
    attains it).  That minimum is the min cut of one copy of the cluster
    network with a capacity-2 source arc into each boundary node and v
    forced to the sink side, so the condition is one max-flow over n
    copies.

    Uniform condition: cut(S) >= 2|B| for every nonempty S avoiding the
    labeled node.  By Menger's theorem this is min over u of the edge
    connectivity lambda(u, labeled) >= 2|B|, the cluster's global edge
    connectivity, whatever the labeled node.  It is one max-flow over the
    n - 1 copies that send 2|B| from u to the labeled node.

    Both flows are split into chunks of at most FLOW_ARC_CHUNK arcs; no
    cluster size is too large to decide.
    """
    if p.assignment[labeled_node] != k:
        raise ValueError(f"labeled node {labeled_node} is not in cluster {k}")
    sub, node_map = induced_subgraph(g, p.nodes_in(k))
    position = {int(orig): new for new, orig in enumerate(node_map)}
    labeled = position[int(labeled_node)]
    boundary = [position[int(b)] for b in boundary_nodes(g, p, k)]
    if not boundary:
        return SubsetCutResult(True, True)
    n, demand = sub.num_nodes, 2 * len(boundary)
    per_subset = _copies_saturate(
        sub, np.broadcast_to(boundary, (n, len(boundary))), 2, np.arange(n), demand
    )
    others = np.delete(np.arange(n), labeled)
    uniform = _copies_saturate(
        sub, others[:, None], demand, np.full(n - 1, labeled), demand
    )
    return SubsetCutResult(per_subset, uniform)


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
    the certificate holds iff one max-flow from an auxiliary source, with
    capacity 2 into each node of B', to the labeled node has value 2|B'|.
    """
    if p.assignment[labeled_node] != k:
        raise ValueError(f"labeled node {labeled_node} is not in cluster {k}")
    sub, node_map = induced_subgraph(g, p.nodes_in(k))
    position = {int(orig): new for new, orig in enumerate(node_map)}
    labeled = position[int(labeled_node)]
    forced = [position[int(b)] for b in boundary_nodes(g, p, k)]
    forced = [b for b in forced if b != labeled]
    if not forced:
        return True
    source = sub.num_nodes
    tails = np.concatenate([sub.heads, sub.tails, np.full(len(forced), source)])
    heads = np.concatenate([sub.tails, sub.heads, forced])
    caps = np.concatenate(
        [np.ones(2 * sub.num_edges, dtype=np.int64), np.full(len(forced), 2)]
    )
    value, _, _ = min_cut(sub.num_nodes + 1, tails, heads, caps, source, labeled)
    return value == 2 * len(forced)


# ---------------------------------------------------------------------------
# Concentration bounds and the model-parameter recovery condition
# ---------------------------------------------------------------------------

def boundary_concentration_bound(
    n_k: int, n_total: int, p_out: float, alpha: float
) -> float:
    """Bound on P{boundary edge count >= 2 p_out n_k (N - n_k)}."""
    if not 0.0 <= p_out <= 1.0:
        raise ValueError(f"p_out={p_out} outside [0, 1]")
    if alpha <= 0:
        raise ValueError(f"alpha={alpha} must be positive")
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


@dataclass(frozen=True)
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
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
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

@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    Per-seed checks: the cluster-level well-connectedness flag is True
    when at least one of the cluster's labeled nodes is certified (a
    single certified seed per cluster is what the exact-recovery guarantee
    needs); individual seed verdicts are retained alongside.  The subset-cut
    conditions are decided once per cluster: the uniform verdict is the
    cluster's edge connectivity against 2|B|, the same for every seed.
    """
    g, truth = instance.graph, instance.truth
    condition = recovery_condition_report(
        instance.params, instance.seeds.seeds_per_cluster, alpha, beta
    )
    rows = []
    for k in range(1, truth.num_clusters + 1):
        members = truth.nodes_in(k)
        bn = boundary_nodes(g, truth, k)
        be = boundary_edge_count(g, truth, k)
        sub, _ = induced_subgraph(g, members)
        bound = spectral_cut_bound_check(sub, be, g.num_nodes)
        seeds_k = instance.seeds.per_cluster[k - 1]
        cuts = subset_cut_check(g, truth, k, seeds_k[0])
        uniform_by_seed = tuple((i, cuts.uniform_holds) for i in seeds_k)
        wc_by_seed = tuple((i, well_connected(g, truth, k, i)) for i in seeds_k)
        wc_holds = any(flag for _, flag in wc_by_seed)
        rows.append(
            ClusterChecks(
                cluster=k,
                size=members.size,
                boundary_node_count=bn.size,
                boundary_edge_count=be,
                lambda2=bound.lambda2,
                spectral_cut_bound_lhs=bound.lhs,
                spectral_cut_bound_rhs=bound.rhs,
                spectral_cut_bound_holds=bound.holds,
                subset_cut_holds=cuts.per_subset_holds,
                wellconnected_holds=wc_holds,
                uniform_cut_by_seed=uniform_by_seed,
                wellconnected_by_seed=wc_by_seed,
                condition=condition.clusters[k - 1],
            )
        )
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
