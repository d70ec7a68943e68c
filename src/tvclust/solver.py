"""Primal-dual message passing for seed-constrained TV minimization.

Finds a signal of minimum total variation among all signals that take
prescribed values on a labeled node set M.  :func:`solve_batch` runs K such
problems on one graph and labeled set (row k of a (K, S) matrix holds
problem k's values).

A row with distinct labeled values a_0 < ... < a_m is split into the m 0/1
targets [value >= a_j].  If u_j is an optimum of target j, of TV C_j, then

    x = sum_{j=0..m} a_j (u_j - u_{j+1}),    u_0 = 1, u_{m+1} = 0,

is a_i on a node labeled a_i, exactly (one term is a_i, the others 0), and
TV(x) <= sum_j (a_j - a_{j-1}) C_j, which by the coarea formula is the
optimum of the row.  A row with one value is that constant, with no sweep.
The targets of all rows run as one batch, in groups that share one set of
in-place arrays.  One sweep computes, row by row,

    x~_i  = 2 x_i - x_i^prev                      (extrapolation)
    y_e  += (1/2) (x~_head - x~_tail), then clip y_e to [-1, 1]
    r_i   = sum_{e: head=i} y_e - sum_{e: tail=i} y_e       (r = div y)
    x_i  -= gamma_i r_i, then x_i = value_i for labeled i

with gamma_i = 1/d_i (the diagonally preconditioned primal-dual method of
Chambolle and Pock, 2011).  A group's rows are gathered at flattened
indices, and r is one ``np.bincount`` over the heads minus one over the
tails; bincount adds in input order, so each row is summed exactly as in
a one-row solve and its result depends neither on K nor on its group.

The stop is certified.  For |y_e| <= 1, TV(x) >= sum_i r_i x_i for every
x.  Clipping a signal to [0, 1] never raises its TV and keeps the 0/1
labels, so by weak duality (Jung, IEEE SPL 2020, gives the flow form)

    OPT >= sum_{i in M} v_i r_i + sum_{i not in M} min(r_i, 0),

and OPT, an integer cut of unit-weight edges, is >= ceil(bound) of the
greatest bound seen.  By the coarea formula some level set {x > t} of the
clipped iterate cuts at most TV(x) (the thresholding theorem of Chan,
Esedoglu and Nikolova, 2006).  Every ``_CHECK_EVERY`` sweeps and after the
last, each target ranks its nodes by value once and reads the cut of every
level set off one cumulative sum over the edges' ranks; once the least of
them is at most ceil(bound), the level sets that reach it are optimal and
the target leaves the batch.  Its signal is their average, weighted by
threshold length and rounded to a 2^-24 grid: a convex combination of
optima (its TV is OPT, exactly), 0/1 wherever the optimum is unique, and a
monotone remap of the iterate, so the solver's ordering of the nodes on
the optimal face stays.  A target that never certifies gives its last
checked iterate, clipped, after ``max_iters`` sweeps.  A row's
``stop_reason`` is "level_set" when all its targets certified, else
"budget"; its ``iters`` is the most sweeps of its targets and its
``bound`` is sum_j (a_j - a_{j-1}) times target j's bound.  A row whose
targets all certified is an optimum and reports gap 0: its float TV and
bound may still differ by rounding.

:func:`solve` is the one-problem case.  Isolated nodes have no messages;
they keep gamma_i = 1 and hold their initial value (0 or the seed value).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tvclust.graphs import Graph, checked_int, checked_int_array, total_variation

_CHECK_EVERY = 8  # sweeps between two certificate checks of a row
# rows x edges swept together: past it batching saves no dispatch cost, and
# groups keep the (rows, E) buffers a few MB however many rows there are
_ROW_EDGES = 1 << 16


class SeedValuesError(ValueError):
    """The labeled node set is empty or malformed."""


class SolverConfigError(ValueError):
    """A sweep budget that is not an integer >= 1."""


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 2000

    def __post_init__(self):
        max_iters = checked_int(self.max_iters, SolverConfigError, "max_iters")
        if max_iters < 1:
            raise SolverConfigError(f"max_iters must be >= 1, got {max_iters}")
        object.__setattr__(self, "max_iters", max_iters)


@dataclass(frozen=True)
class SolveDiagnostics:
    iters: int
    tv_final: float  # TV of the returned signal
    converged: bool  # stop_reason == "level_set": the signal is an optimum
    bound: float  # certified lower bound on the optimal TV
    gap: float  # 0 if converged, else (tv_final - bound) / max(1, tv_final)
    stop_reason: str  # "level_set" or "budget"

    def as_text(self) -> str:
        return (f"iters={self.iters} tv_final={self.tv_final!r} bound={self.bound!r} "
                f"gap={self.gap!r} converged={self.converged} "
                f"stop_reason={self.stop_reason}")


def _check_seeds(g: Graph, seed_ids, seed_values) -> tuple[np.ndarray, np.ndarray]:
    """The (S,) ascending labeled node ids as int64 and the (K, S) values,
    one row per problem, as float64."""
    ids = checked_int_array(seed_ids, SeedValuesError, "labeled node ids")
    values = np.asarray(seed_values, dtype=np.float64)
    if ids.size == 0:
        raise SeedValuesError("labeled node set must be nonempty")
    if ids.ndim != 1 or (np.diff(ids) <= 0).any():
        raise SeedValuesError("labeled node ids must be distinct and ascending")
    if ids[0] < 0 or ids[-1] >= g.num_nodes:
        raise SeedValuesError(f"labeled node id outside 0..{g.num_nodes - 1}")
    if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] != ids.size:
        raise SeedValuesError(
            f"labeled values have shape {values.shape}, expected (K >= 1, {ids.size})"
        )
    if not np.isfinite(values).all():
        raise SeedValuesError("labeled values must be finite")
    return ids, values


class _Sweeper:
    """Step sizes, flattened edge and seed indices and work buffers for k
    rows.  The (k, E) gathers go to buffers allocated once: a fresh array per
    sweep costs a page fault per 4 KiB whenever it is returned to the system.
    """

    def __init__(self, g: Graph, seed_ids: np.ndarray, rows: int):
        offsets = np.arange(rows, dtype=np.int64)[:, None] * g.num_nodes
        self.heads = (g.heads + offsets).ravel()
        self.tails = (g.tails + offsets).ravel()
        self.seeds = (seed_ids + offsets).ravel()
        self.gamma = 1.0 / np.maximum(g.degrees, 1)  # 1 on isolated nodes
        self.x_tilde = np.empty((rows, g.num_nodes))
        self.diff = np.empty(self.heads.size)
        self.at_tails = np.empty(self.heads.size)

    def keep_rows(self, k: int) -> None:
        """Sweep only the k leading rows from now on."""
        rows = len(self.x_tilde)
        self.heads = self.heads[: self.heads.size // rows * k]
        self.tails = self.tails[: self.tails.size // rows * k]
        self.seeds = self.seeds[: self.seeds.size // rows * k]
        self.x_tilde = self.x_tilde[:k]
        self.diff = self.diff[: self.heads.size]
        self.at_tails = self.at_tails[: self.heads.size]

    def sweep(self, x_prev, x_cur, y, seed_values) -> np.ndarray:
        """One sweep in place: updates the (k, E) messages y, overwrites
        x_prev with the new (k, N) iterate and returns r = div y; the caller
        then swaps x_prev and x_cur.  seed_values is (k, S).
        """
        x_tilde = self.x_tilde
        np.multiply(x_cur, 2.0, out=x_tilde)
        x_tilde -= x_prev
        x_flat = x_tilde.reshape(-1)
        # mode="clip" never clips (the indices are in range) and, unlike
        # the default, writes to `out` without an intermediate copy
        diff = x_flat.take(self.heads, out=self.diff, mode="clip")
        diff -= x_flat.take(self.tails, out=self.at_tails, mode="clip")
        diff *= 0.5
        y_flat = y.reshape(-1)
        y_flat += diff
        np.clip(y_flat, -1.0, 1.0, out=y_flat)
        divergence = np.bincount(self.heads, weights=y_flat, minlength=x_flat.size)
        divergence -= np.bincount(self.tails, weights=y_flat, minlength=x_flat.size)
        divergence = divergence.reshape(x_tilde.shape)
        np.multiply(divergence, self.gamma, out=x_prev)
        np.subtract(x_cur, x_prev, out=x_prev)
        x_prev.reshape(-1)[self.seeds] = seed_values.reshape(-1)
        return divergence

    def certify(self, x, divergence, seed_values):
        """The (k, N) iterate x clipped to [0, 1] (a view of a work buffer)
        and the weak-duality bound per row of the messages whose divergence
        is given."""
        clipped = np.clip(x, 0.0, 1.0, out=self.x_tilde)
        terms = np.minimum(divergence, 0.0)
        at_seeds = divergence.reshape(-1)[self.seeds] * seed_values.reshape(-1)
        terms.reshape(-1)[self.seeds] = at_seeds
        return clipped, terms.sum(axis=1)

    def level_sets(self, clipped, floor):
        """Which rows of the clipped (k, N) iterate have a level set {x > t},
        t below the row's top value, that cuts at most `floor` edges, and
        the (k, N) signal whose certified rows are the average of their
        optimal level sets weighted by threshold length (its other rows are
        0), or None when no row certifies.

        With a row's nodes sorted by value, each level set is the complement
        of the first m + 1 nodes, for the m at which the sorted value steps
        up; an edge crosses that prefix iff its lower rank is <= m < its
        higher rank, so one cumulative sum gives the cut of every prefix.
        """
        k, n = clipped.shape
        # flat indices, row by row in ascending value; ties have no level
        # set between them, so their order does not matter
        order = np.argsort(clipped, axis=1) + np.arange(0, k * n, n)[:, None]
        rank = np.empty(k * n, dtype=np.int64)  # rank in the row + row * N
        rank[order] = np.arange(k * n).reshape(k, n)
        at_heads, at_tails = rank.take(self.heads), rank.take(self.tails)
        crossings = np.bincount(np.minimum(at_heads, at_tails), minlength=k * n)
        crossings -= np.bincount(np.maximum(at_heads, at_tails), minlength=k * n)
        cut = np.cumsum(crossings.reshape(k, n), axis=1)
        # prefix m is the complement of {x > t} for t in [value m, value m + 1)
        length = np.zeros((k, n))
        length[:, :-1] = np.diff(clipped.take(order), axis=1)
        least = np.where(length > 0, cut, np.iinfo(cut.dtype).max).min(axis=1)
        exact = least <= floor
        if not exact.any():
            return exact, None
        optimal = cut[exact] == least[exact, None]
        total = np.cumsum(np.where(optimal, length[exact], 0.0), axis=1)
        by_rank = np.zeros(total.shape)
        by_rank[:, 1:] = total[:, :-1] / total[:, -1:]
        signal = np.zeros(k * n)
        # on a grid of 2^-24 steps every edge difference and every partial
        # sum of the TV is exact below 2^29 edges: the signal's TV is OPT
        signal[order[exact]] = np.rint(by_rank * 2.0**24) / 2.0**24
        return exact, signal.reshape(k, n)


def _compact(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Move the kept leading rows of a to its front; returns the shorter view."""
    n = int(keep.sum())
    a[:n] = a[keep]
    return a[:n]


def solve_batch(
    g: Graph,
    seed_ids: np.ndarray,
    seed_values: np.ndarray,
    config: SolverConfig = SolverConfig(),
) -> tuple[np.ndarray, tuple[SolveDiagnostics, ...]]:
    """Solve K problems with shared labeled nodes, one per row of seed_values.

    seed_ids holds the S labeled node ids in ascending order and the
    (K, S) seed_values their values per problem.  Returns the (K, N)
    matrix whose row k is problem k's signal, put together from the
    signals of its 0/1 threshold targets, and one diagnostics entry per
    row.  Non-convergence within max_iters is not an error (the problem
    always has a solution); it is reported through the `converged` flag.
    The targets of all rows are swept in groups of max(1, _ROW_EDGES // E).
    """
    seed_ids, seed_values = _check_seeds(g, seed_ids, seed_values)
    levels = [np.unique(v) for v in seed_values]  # a_0 < ... < a_m per row
    # row k's targets [value >= a_j], j = 1..m, one after another
    targets = np.concatenate([v >= a[1:, None] for v, a in zip(seed_values, levels)])
    owner = np.repeat(np.arange(len(levels)), [a.size - 1 for a in levels])
    step = np.concatenate([np.arange(1, a.size) for a in levels])
    iters, bound, certified = (np.empty(len(targets), t) for t in (int, float, bool))
    scores = np.repeat([[a[0]] for a in levels], g.num_nodes, axis=1)
    group = max(1, _ROW_EDGES // max(1, g.num_edges))
    for i in range(0, len(targets), group):
        part = slice(i, i + group)
        u = np.empty((len(targets[part]), g.num_nodes))
        iters[part], bound[part], certified[part] = _solve_rows(
            g, seed_ids, targets[part], config.max_iters, u
        )
        # x = sum_j a_j (u_j - u_{j+1}), added up in ascending j; a group
        # keeps only its own targets' signals, so `above` carries u_{j-1}
        for k, j, u_j in zip(owner[part], step[part], u):
            if j == 1:
                scores[k], above = 0.0, 1.0
            a = levels[k]
            scores[k] += a[j - 1] * (above - u_j)
            if j == a.size - 1:
                scores[k] += a[j] * u_j
            above = u_j
    diagnostics = []
    for k, a in enumerate(levels):
        mine = owner == k
        tv = total_variation(g, scores[k])
        lower = float((np.diff(a) * bound[mine]).sum())
        done = bool(certified[mine].all())
        diagnostics.append(SolveDiagnostics(
            int(iters[mine].max(initial=0)), tv, done, lower,
            0.0 if done else (tv - lower) / max(1.0, tv),
            "level_set" if done else "budget",
        ))
    return scores, tuple(diagnostics)


def _solve_rows(g, seed_ids, targets, max_iters, signals):
    """Sweep the (k, S) boolean targets until each certifies a level set or
    the budget runs out, writing their signals to the (k, N) `signals`.
    Returns per target its sweep count, its bound (the rounded-up one if
    it certified) and whether it certified."""
    k, n = targets.shape[0], g.num_nodes
    sweeper = _Sweeper(g, seed_ids, k)
    x_prev, x_cur = np.zeros((k, n)), np.zeros((k, n))
    y = np.zeros((k, g.num_edges))
    values = targets.astype(np.float64)
    rows = np.arange(k)  # the target each active row solves
    bound, iters = np.full(k, -np.inf), np.full(k, max_iters)
    certified = np.zeros(k, dtype=bool)
    for r in range(1, max_iters + 1):
        divergence = sweeper.sweep(x_prev, x_cur, y, values)
        x_prev, x_cur = x_cur, x_prev
        if r % _CHECK_EVERY and r < max_iters:
            continue
        clipped, bound_now = sweeper.certify(x_cur, divergence, values)
        bound[rows] = np.maximum(bound[rows], bound_now)
        if r == max_iters:
            signals[rows] = clipped
        # OPT is an integer: a level set that reaches the rounded-up bound
        # is an optimum
        floor = np.ceil(bound[rows] - 1e-9 * np.maximum(1.0, np.abs(bound[rows])))
        exact, signal = sweeper.level_sets(clipped, floor)
        if signal is None:
            continue
        done = rows[exact]
        signals[done] = signal[exact]
        bound[done], iters[done], certified[done] = floor[exact], r, True
        x_prev, x_cur, y, values, rows = (
            _compact(a, ~exact) for a in (x_prev, x_cur, y, values, rows)
        )
        sweeper.keep_rows(rows.size)
        if rows.size == 0:
            break
    return iters, bound, certified


def solve(
    g: Graph, seed_values: dict, config: SolverConfig = SolverConfig()
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Run sweeps until every threshold target certifies a level set, or
    max_iters is reached.

    The one-problem case of :func:`solve_batch`: returns (x, diagnostics)
    for the labeled values given as a {node: value} dict.
    """
    ids = sorted(seed_values)
    scores, diagnostics = solve_batch(g, ids, [[seed_values[i] for i in ids]], config)
    return scores[0], diagnostics[0]
