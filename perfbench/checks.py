"""Correctness checks made apart from the program under test.

Every check takes plain numbers and numpy arrays (the program's outputs
and the inputs they came from), recomputes what it can with numpy and
scipy, and raises CheckFailed on the first disagreement.  Nothing here
imports tvclust: exact min cuts come from scipy's max-flow, spectra from
numpy's eigvalsh, and the certificate verdicts are re-decided through
max-flow formulations that differ from the program's enumerations.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import maximum_flow

REL_TOL = 1e-9
# the program's enumeration guards: larger checks are reported as None
SUBSET_GUARD = 22
BOUNDARY_GUARD = 16


class CheckFailed(Exception):
    """A program output disagrees with the independent computation."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Max-flow building blocks (scipy.sparse.csgraph)
# ---------------------------------------------------------------------------

def max_flow_value(num_nodes: int, tails, heads, caps, source: int, sink: int) -> int:
    """Value of a maximum source-sink flow; parallel arcs add their capacities."""
    mat = scipy.sparse.csr_matrix(
        (np.asarray(caps, dtype=np.int32), (np.asarray(tails), np.asarray(heads))),
        shape=(num_nodes, num_nodes),
    )
    return int(maximum_flow(mat, source, sink, method="dinic").flow_value)


def _unit_arcs(edges: np.ndarray):
    """Both orientations of every undirected edge, capacity 1 each."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    tails = np.concatenate([edges[:, 0], edges[:, 1]])
    heads = np.concatenate([edges[:, 1], edges[:, 0]])
    return tails, heads, np.ones(tails.size, dtype=np.int64)


def exact_min_tv(num_nodes: int, edges: np.ndarray, ones, zeros) -> int:
    """Minimum total variation of a signal fixed to 1 on `ones`, 0 on `zeros`.

    For a binary target this equals the minimum number of edges separating
    the two seed sets, i.e. a unit-capacity minimum cut.
    """
    ones, zeros = list(ones), list(zeros)
    if not ones or not zeros:
        return 0
    tails, heads, caps = _unit_arcs(edges)
    source, sink = num_nodes, num_nodes + 1
    big = caps.size + 1
    tails = np.concatenate([tails, np.full(len(ones), source), zeros])
    heads = np.concatenate([heads, ones, np.full(len(zeros), sink)])
    caps = np.concatenate([caps, np.full(len(ones) + len(zeros), big)])
    return max_flow_value(num_nodes + 2, tails, heads, caps, source, sink)


def numpy_tv(edges: np.ndarray, x: np.ndarray) -> float:
    edges = np.asarray(edges).reshape(-1, 2)
    return float(np.abs(x[edges[:, 0]] - x[edges[:, 1]]).sum())


# ---------------------------------------------------------------------------
# Certificates, re-decided
# ---------------------------------------------------------------------------

def lambda2(num_nodes: int, edges: np.ndarray) -> float:
    """Second-smallest eigenvalue of a Laplacian built here from the edges."""
    if num_nodes < 2:
        return 0.0
    lap = np.zeros((num_nodes, num_nodes))
    edges = np.asarray(edges).reshape(-1, 2)
    np.add.at(lap, (edges[:, 0], edges[:, 1]), -1.0)
    np.add.at(lap, (edges[:, 1], edges[:, 0]), -1.0)
    lap[np.diag_indices(num_nodes)] = -lap.sum(axis=1)
    return float(np.linalg.eigvalsh(lap)[1])


def per_subset_cut_holds(n: int, edges: np.ndarray, boundary) -> bool:
    """Every nonempty proper subset S has cut(S) >= 2 |S & boundary|.

    Rewritten as min over S of cut(S) + 2 |boundary - S| >= 2 |boundary|:
    a min cut with arcs of capacity 2 from a source to each boundary node.
    One node v is forced off the source side per max-flow, so the n flows
    together range over all proper subsets.  The empty set scores exactly
    2 |boundary| and cannot change the verdict.
    """
    boundary = list(boundary)
    tails, heads, caps = _unit_arcs(edges)
    source, sink = n, n + 1
    big = caps.size + 2 * len(boundary) + 1
    for v in range(n):
        t = np.concatenate([tails, np.full(len(boundary), source), [v]])
        h = np.concatenate([heads, boundary, [sink]])
        c = np.concatenate([caps, np.full(len(boundary), 2), [big]])
        if max_flow_value(n + 2, t, h, c, source, sink) < 2 * len(boundary):
            return False
    return True


def uniform_cut_holds(n: int, edges: np.ndarray, boundary_size: int, labeled: int) -> bool:
    """Every nonempty S avoiding `labeled` has cut(S) >= 2 |boundary|.

    Equivalent to: the edge connectivity between `labeled` and every other
    node is at least 2 |boundary|.
    """
    tails, heads, caps = _unit_arcs(edges)
    return all(
        max_flow_value(n, tails, heads, caps, u, labeled) >= 2 * boundary_size
        for u in range(n)
        if u != labeled
    )


def well_connected_holds(n: int, edges: np.ndarray, boundary, labeled: int) -> bool:
    """Every +-2 pattern on the boundary (less `labeled`) can be routed.

    A +2 node injects 2 units and a -2 node absorbs 2; the labeled node
    takes the balance 2 (|plus| - |minus|).  Each pattern is one
    supply/demand feasibility max-flow on the cluster's unit-capacity
    edges.
    """
    forced = [b for b in boundary if b != labeled]
    tails, heads, caps = _unit_arcs(edges)
    source, sink = n, n + 1
    for pattern in range(1 << len(forced)):
        plus = [b for bit, b in enumerate(forced) if (pattern >> bit) & 1]
        minus = [b for bit, b in enumerate(forced) if not (pattern >> bit) & 1]
        balance = 2 * (len(plus) - len(minus))
        t = [tails, np.full(len(plus), source), minus]
        h = [heads, plus, np.full(len(minus), sink)]
        c = [caps, np.full(len(plus) + len(minus), 2)]
        if balance > 0:
            t.append([labeled]), h.append([sink]), c.append([balance])
        elif balance < 0:
            t.append([source]), h.append([labeled]), c.append([-balance])
        supply = 2 * len(plus) + max(0, -balance)
        flow = max_flow_value(
            n + 2, np.concatenate(t), np.concatenate(h), np.concatenate(c), source, sink
        )
        if flow != supply:
            return False
    return True


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------

def check_sweep_rows(rows, grid, s_values, reps: int, master_seed: int) -> None:
    """Row order, recomputed instance seeds, plateau and chance floor.

    `rows` are tuples (s, p_in, p_out, ratio, rep, instance_seed, accuracy,
    iters, wall_ms) as the sweep CSV lists them.
    """
    expected = [
        (gi, si, rep)
        for gi in range(len(grid))
        for si in range(len(s_values))
        for rep in range(reps)
    ]
    require(len(rows) == len(expected), f"{len(rows)} rows, expected {len(expected)}")
    plateau, floor = [], []
    for row, (gi, si, rep) in zip(rows, expected):
        s, p_in, p_out, ratio, r_rep, seed, acc, iters, wall_ms = row
        key = f"row (g={gi}, s={si}, rep={rep})"
        require(
            (s, p_in, r_rep) == (s_values[si], grid[gi], rep),
            f"{key} out of order: s={s} p_in={p_in} rep={r_rep}",
        )
        want = np.random.SeedSequence(master_seed, spawn_key=(gi, si, rep))
        want = int(want.generate_state(1, dtype=np.uint64)[0])
        require(seed == want, f"{key} instance_seed {seed} != recomputed {want}")
        require(close(ratio, s * p_in / p_out), f"{key} ratio {ratio} != S p_in / p_out")
        require(0.0 <= acc <= 1.0, f"{key} accuracy {acc} outside [0, 1]")
        require(iters >= 1 and wall_ms > 0, f"{key} iters={iters} wall_ms={wall_ms}")
        if ratio >= 70:
            plateau.append(acc)
        if p_in == p_out:
            floor.append(acc)
    require(plateau and np.mean(plateau) >= 0.95,
            f"plateau mean accuracy {np.mean(plateau) if plateau else None} < 0.95")
    require(floor and abs(np.mean(floor) - 0.5) <= 0.15,
            f"accuracy at p_in = p_out is {np.mean(floor) if floor else None}, not near 0.5")


def check_clustering(
    num_nodes, edges, truth, seed_groups, assignment, scores, tv_final,
    min_accuracy: float = 0.99,
) -> None:
    """Decode, seed labels, accuracy, and TV against the exact min cut.

    The assignment must be the argmax decode of the scores (ties to the
    smallest index), every seed must keep its own label and every score
    row must hold its 0/1 targets on the seeds.
    """
    assignment = np.asarray(assignment)
    scores = np.asarray(scores)
    k_max = len(seed_groups)
    require(k_max == int(truth.max()), f"{k_max} seed groups for {int(truth.max())} clusters")
    seeds = np.asarray(sorted(i for g in seed_groups for i in g), dtype=np.int64)
    decoded = np.argmax(scores, axis=0) + 1
    wrong = np.flatnonzero(assignment != decoded)
    require(wrong.size == 0, f"{wrong.size} nodes differ from the argmax of their scores")
    for k, group in enumerate(seed_groups, start=1):
        got = assignment[list(group)]
        require((got == k).all(), f"a seed of cluster {k} got label {got[got != k][:1]}")
        target = (np.arange(1, k_max + 1) == k).astype(float)
        require((scores[:, list(group)] == target[:, None]).all(),
                f"scores on the seeds of cluster {k} are not their 0/1 targets")
    free = np.ones(num_nodes, dtype=bool)
    free[seeds] = False
    acc = float((assignment[free] == truth[free]).mean())
    require(acc >= min_accuracy, f"accuracy {acc:.4f} < {min_accuracy}")
    for k, group in enumerate(seed_groups, start=1):
        tv = numpy_tv(edges, np.asarray(scores[k - 1]))
        require(close(tv, tv_final[k - 1], 1e-7),
                f"cluster {k}: reported TV {tv_final[k - 1]!r} != TV of its scores {tv!r}")
        others = [i for j, g in enumerate(seed_groups, start=1) if j != k for i in g]
        exact = exact_min_tv(num_nodes, edges, group, others)
        require(tv_final[k - 1] >= exact - 1e-9 * max(1, exact),
                f"cluster {k}: solver TV {tv_final[k - 1]!r} below the exact min cut {exact}")


def check_same_edges(a: np.ndarray, b: np.ndarray) -> None:
    def canonical(e):
        e = np.sort(np.asarray(e, dtype=np.int64).reshape(-1, 2), axis=1)
        return e[np.lexsort((e[:, 1], e[:, 0]))]

    ca, cb = canonical(a), canonical(b)
    require(ca.shape == cb.shape and (ca == cb).all(),
            f"edge sets differ after the round trip ({len(ca)} vs {len(cb)} edges)")


def check_oracle(num_nodes, edges, ones, zeros, optimal_tv, signal) -> None:
    """Optimal TV equals scipy's max-flow; the signal is a feasible optimizer."""
    signal = np.asarray(signal)
    exact = exact_min_tv(num_nodes, edges, ones, zeros)
    require(optimal_tv == exact, f"optimal_tv {optimal_tv} != scipy max-flow {exact}")
    require(np.isin(signal, (0.0, 1.0)).all(), "oracle signal is not binary")
    require((signal[list(ones)] == 1.0).all() and (signal[list(zeros)] == 0.0).all(),
            "oracle signal does not respect the seeds")
    tv = numpy_tv(edges, signal)
    require(tv == optimal_tv, f"TV of the oracle signal {tv} != optimal_tv {optimal_tv}")


def cluster_certificates(n, edges, boundary, labeled_nodes, num_nodes_total,
                         boundary_edges) -> dict:
    """What the program's per-cluster report must say, decided here.

    Node ids are local to the cluster (0..n-1).  Verdicts past the
    enumeration guards are None, as the program reports them.
    """
    lam = lambda2(n, edges)
    lhs = (1.0 - 1.0 / num_nodes_total) * lam
    small = n <= SUBSET_GUARD
    wc = (
        tuple(well_connected_holds(n, edges, boundary, ell) for ell in labeled_nodes)
        if len(boundary) <= BOUNDARY_GUARD
        else None
    )
    return {
        "size": n,
        "boundary_node_count": len(boundary),
        "boundary_edge_count": boundary_edges,
        "lambda2": lam,
        "spectral_cut_bound_holds": lhs >= 2.0 * boundary_edges,
        "subset_cut_holds": per_subset_cut_holds(n, edges, boundary) if small else None,
        "uniform_cut_by_seed": (
            tuple(uniform_cut_holds(n, edges, len(boundary), ell) for ell in labeled_nodes)
            if small
            else None
        ),
        "wellconnected_by_seed": wc,
        "wellconnected_holds": None if wc is None else any(wc),
    }


def check_certificates(expected: dict, got: dict, label: str) -> None:
    """Compare one cluster's program verdicts with `cluster_certificates`."""
    for key, want in expected.items():
        have = got[key]
        if key == "lambda2":
            ok = abs(have - want) <= 1e-8 * max(1.0, abs(want))
        else:
            ok = have == want
        require(ok, f"{label}: {key} is {have!r}, recomputed {want!r}")


def check_result_csv(table, truth, assignment, seed_groups) -> None:
    """The per-node CSV lists every node with its truth, label and seed flag."""
    k_max = len(seed_groups)
    header = ["node", "true_cluster", "pred_cluster"]
    header += [f"score_{k}" for k in range(1, k_max + 1)] + ["is_seed"]
    require(table[0] == header, f"result CSV header {table[0]}")
    body = np.asarray([[int(row[0]), int(row[1]), int(row[2]), int(row[-1])]
                       for row in table[1:]])
    require(body.shape[0] == truth.size, f"{body.shape[0]} CSV rows for {truth.size} nodes")
    seeds = np.zeros(truth.size, dtype=np.int64)
    seeds[[i for g in seed_groups for i in g]] = 1
    require((body[:, 0] == np.arange(truth.size)).all(), "CSV node column out of order")
    require((body[:, 1] == truth).all(), "CSV true_cluster differs from the block truth")
    require((body[:, 2] == assignment).all(), "CSV pred_cluster differs from the assignment")
    require((body[:, 3] == seeds).all(), "CSV is_seed differs from the seed set")
