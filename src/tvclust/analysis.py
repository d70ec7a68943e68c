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
  uniform), all read off copies of one flow network per cluster.  The copy
  with exit v decides whether v is well connected, so the per-subset
  condition holds iff every node of the cluster is;
* closed-form concentration bounds on the boundary size and the spectral
  gap, and the model-parameter recovery condition
  S * p_in / p_out >= beta * n_k * (N - n_k) with its failure bound.

Every check runs in polynomial time and has no cluster-size limit; copies
are batched into max-flows of bounded size (FLOW_ARC_CHUNK arcs).
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


class ConditionParameterError(ValueError):
    """A concentration constant alpha or beta is not finite and positive."""


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


class _ClusterNetwork:
    """Cluster k's flow network, the one place every certificate flow is built.

    `sub` is the induced subgraph of the cluster's members (ascending
    original ids) and `boundary` the positions in it of the boundary nodes
    B.  A copy of the network is a disjoint copy of `sub` with unit arcs
    both ways on every edge, entry arcs from a shared source and one arc of
    capacity demand = 2|B| from its exit node to a shared sink.
    """

    def __init__(self, g: Graph, p: Partition, k: int):
        boundary = boundary_nodes(g, p, k)
        self.cluster = k
        self.sub, self.members = induced_subgraph(g, p.nodes_in(k))
        self.boundary = np.searchsorted(self.members, boundary)
        self.demand = 2 * boundary.size

    def position(self, labeled_node) -> int:
        """Position of a labeled node in `sub`; ValueError for a non-member."""
        if isinstance(labeled_node, (int, np.integer)):
            pos = int(np.searchsorted(self.members, labeled_node))
            if pos < self.members.size and self.members[pos] == labeled_node:
                return pos
        raise ValueError(
            f"labeled node {labeled_node} is not in cluster {self.cluster}"
        )

    def exit_copies(self, exits: np.ndarray):
        """Per-subset copies: capacity 2 into each boundary node, exit v for
        each v in `exits`; copy v carries 2|B| iff v is well connected."""
        entries = np.broadcast_to(self.boundary, (exits.size, self.boundary.size))
        return self._copies(entries, 2, exits)

    def menger_copies(self, labeled: int):
        """Uniform copies: 2|B| into u, exit the labeled node, for every other
        u; copy u carries 2|B| iff lambda(u, labeled) >= 2|B|."""
        others = np.delete(np.arange(self.sub.num_nodes), labeled)
        return self._copies(others[:, None], self.demand, np.full(others.size, labeled))

    def _copies(self, entries: np.ndarray, entry_cap: int, exits: np.ndarray):
        """Yield, per max-flow, which of its copies carry the demand.

        Copy c has an arc of capacity `entry_cap` into each node of
        entries[c] (together the demand) and exits at exits[c].  A flow
        holds at most FLOW_ARC_CHUNK arcs (at least one copy), and a copy's
        value is its share of the source's out-flow.
        """
        if not self.demand:
            # no boundary: every copy carries its empty demand
            yield np.ones(exits.size, dtype=bool)
            return
        sub, width = self.sub, entries.shape[1]
        n = sub.num_nodes
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
                np.full(count, self.demand),
            ])
            _, flow = _max_flow(
                count * n + 2, chunk_tails, chunk_heads, caps, source, sink
            )
            out = slice(flow.flow.indptr[source], flow.flow.indptr[source + 1])
            value = np.bincount(
                flow.flow.indices[out] // n, weights=flow.flow.data[out],
                minlength=count,
            )
            yield value == self.demand


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

    Copies are batched into max-flows of at most FLOW_ARC_CHUNK arcs and
    the first flow with a short copy decides; no cluster size is too large
    to decide.
    """
    net = _ClusterNetwork(g, p, k)
    labeled = net.position(labeled_node)
    exits = np.arange(net.sub.num_nodes)
    return SubsetCutResult(
        all(chunk.all() for chunk in net.exit_copies(exits)),
        all(chunk.all() for chunk in net.menger_copies(labeled)),
    )


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
    net = _ClusterNetwork(g, p, k)
    exits = np.array([net.position(labeled_node)])
    return bool(next(net.exit_copies(exits))[0])


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
    _check_condition_parameter("alpha", alpha)
    _check_condition_parameter("beta", beta)
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

    Each cluster's flow network is built once.  Its copies with the seeds
    as exits run first and give every per-seed well-connectedness verdict;
    the cluster-level flag is True when at least one seed is certified (a
    single certified seed per cluster is what the exact-recovery guarantee
    needs).  The per-subset condition holds iff every node of the cluster
    is well connected, so a seed that falls short decides it with no
    further flow; otherwise the remaining nodes' copies run, up to the
    first short flow.  The uniform condition is the cluster's edge
    connectivity against 2|B|, decided once and the same for every seed.
    The spectral check reuses the network's induced subgraph.
    """
    g, truth = instance.graph, instance.truth
    condition = recovery_condition_report(
        instance.params, instance.seeds.seeds_per_cluster, alpha, beta
    )
    rows = []
    for k in range(1, truth.num_clusters + 1):
        net = _ClusterNetwork(g, truth, k)
        be = boundary_edge_count(g, truth, k)
        bound = spectral_cut_bound_check(net.sub, be, g.num_nodes)
        seeds_k = instance.seeds.per_cluster[k - 1]
        seats = np.array([net.position(i) for i in seeds_k])
        seed_flags = np.concatenate(list(net.exit_copies(seats)))
        others = np.setdiff1d(np.arange(net.sub.num_nodes), seats)
        per_subset = bool(seed_flags.all()) and all(
            chunk.all() for chunk in net.exit_copies(others)
        )
        uniform = all(chunk.all() for chunk in net.menger_copies(seats[0]))
        wc_by_seed = tuple(
            (i, bool(flag)) for i, flag in zip(seeds_k, seed_flags)
        )
        rows.append(
            ClusterChecks(
                cluster=k,
                size=net.members.size,
                boundary_node_count=net.boundary.size,
                boundary_edge_count=be,
                lambda2=bound.lambda2,
                spectral_cut_bound_lhs=bound.lhs,
                spectral_cut_bound_rhs=bound.rhs,
                spectral_cut_bound_holds=bound.holds,
                subset_cut_holds=per_subset,
                wellconnected_holds=bool(seed_flags.any()),
                uniform_cut_by_seed=tuple((i, uniform) for i in seeds_k),
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
