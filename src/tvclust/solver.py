"""Primal-dual message passing for seed-constrained TV minimization.

Finds a signal of minimum total variation among all signals that take
prescribed values on a labeled node set M.  :func:`solve_batch` runs K such
problems on one graph and labeled set (row k of a (K, S) matrix holds
problem k's values); a group of rows shares one set of in-place arrays.
One sweep computes, row by row,

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
x.  Clipping a signal to the range [a, b] of its row's labeled values never
raises its TV and keeps the labeled values, so some optimum lies in
[a, b]^N and, by weak duality (Jung, IEEE SPL 2020, gives the flow form),

    OPT >= sum_{i in M} v_i r_i + sum_{i not in M} min(a r_i, b r_i).

Every ``_CHECK_EVERY`` sweeps and after the last, each row keeps its
clipped iterate of least TV and its greatest bound.  It stops once the
relative gap (TV - bound) / max(1, TV) is at most ``tol`` and leaves the
batch with its own sweep count; a row that never certifies returns its
best checked signal after ``max_iters`` sweeps, unconverged.

A row whose labeled values are 0 and 1 (both present) stops sooner, and
exactly.  The edges have unit weight, so its optimum OPT is an integer
cut and OPT >= ceil(bound); by the coarea formula TV(x) is the average over
t in [0, 1) of the cuts of the level sets {x > t} of the clipped iterate,
so some level set cuts at most TV(x) (the thresholding theorem of Chan,
Esedoglu and Nikolova, 2006).  At each check the row ranks its nodes by
value once and reads the cut of every level set off one cumulative sum
over the edges' ranks; once the least of them is at most ceil(bound), the
level sets that reach it are optimal.  The row returns their average,
weighted by threshold length and rounded to a 2^-24 grid: a convex
combination of optima (its TV is OPT, exactly), 0/1 wherever the optimum is
unique, and a monotone remap of the iterate, so the solver's ordering of
the nodes on the optimal face stays.  It reports bound = ceil(bound) and
gap = 0.  ``SolveDiagnostics.stop_reason`` says which stop ended a row:
"level_set", "gap" or "budget" (max_iters without a certificate).

:func:`solve` is the one-problem case.  Isolated nodes have no messages;
they keep gamma_i = 1 and hold their initial value (0 or the seed value).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from tvclust.graphs import Graph, checked_int, checked_int_array

_CHECK_EVERY = 8  # sweeps between two certificate checks of a row
# rows x edges swept together: past it batching saves no dispatch cost, and
# groups keep the (rows, E) buffers a few MB however many rows there are
_ROW_EDGES = 1 << 16


class SeedValuesError(ValueError):
    """The labeled node set is empty or malformed."""


class SolverConfigError(ValueError):
    """A sweep budget that is not an integer >= 1, or a tolerance that is not
    a finite number >= 0."""


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 2000
    tol: float = 1e-6  # relative duality gap (TV - bound) / max(1, TV) to stop at

    def __post_init__(self):
        max_iters = checked_int(self.max_iters, SolverConfigError, "max_iters")
        if max_iters < 1:
            raise SolverConfigError(f"max_iters must be >= 1, got {max_iters}")
        if not (isinstance(self.tol, numbers.Real) and math.isfinite(self.tol)
                and self.tol >= 0):
            raise SolverConfigError(f"tol must be finite and >= 0, got {self.tol!r}")
        object.__setattr__(self, "max_iters", max_iters)


@dataclass(frozen=True)
class SolveDiagnostics:
    iters: int
    tv_final: float  # TV of the returned signal
    converged: bool  # gap <= tol
    bound: float  # certified lower bound on the optimal TV
    gap: float  # (tv_final - bound) / max(1, tv_final)
    stop_reason: str  # "level_set", "gap" or "budget"

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

    def tv(self, x) -> np.ndarray:
        """The TV of each row of the (k, N) signal x."""
        flat = x.reshape(-1)
        diff = flat.take(self.heads, out=self.diff, mode="clip")
        diff -= flat.take(self.tails, out=self.at_tails, mode="clip")
        return np.abs(diff, out=diff).reshape(len(x), -1).sum(axis=1)

    def certify(self, x, divergence, seed_values):
        """The (k, N) iterate x clipped to each row's seed-value range [lo,
        hi] (a view of a work buffer), its TV per row, and the weak-duality
        bound per row of the messages whose divergence is given."""
        lo = seed_values.min(axis=1, keepdims=True)
        hi = seed_values.max(axis=1, keepdims=True)
        clipped = np.clip(x, lo, hi, out=self.x_tilde)
        tv = self.tv(clipped)
        terms = np.minimum(divergence * lo, divergence * hi)
        at_seeds = divergence.reshape(-1)[self.seeds] * seed_values.reshape(-1)
        terms.reshape(-1)[self.seeds] = at_seeds
        return clipped, tv, terms.sum(axis=1)

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
    matrix whose row k is problem k's checked iterate of least TV, clipped
    to the range of its labeled values (for a 0/1 row stopped on a level
    set, the average of its optimal level sets), and one diagnostics entry
    per row.
    Non-convergence within max_iters is not an error (the problem always
    has a solution); it is reported through the `converged` flag.  Rows
    are swept in groups of max(1, _ROW_EDGES // E).
    """
    seed_ids, seed_values = _check_seeds(g, seed_ids, seed_values)
    scores, diagnostics = np.empty((len(seed_values), g.num_nodes)), []
    group = max(1, _ROW_EDGES // max(1, g.num_edges))
    for i in range(0, len(scores), group):
        part = slice(i, i + group)
        diagnostics += _solve_rows(g, seed_ids, seed_values[part], config, scores[part])
    return scores, tuple(diagnostics)


def _solve_rows(g, seed_ids, seed_values, config, scores) -> list[SolveDiagnostics]:
    """solve_batch on one group of rows, writing their signals to scores."""
    k, n = seed_values.shape[0], g.num_nodes
    sweeper = _Sweeper(g, seed_ids, k)
    x_prev, x_cur = np.zeros((k, n)), np.zeros((k, n))
    y = np.zeros((k, g.num_edges))
    values = seed_values.copy()
    rows = np.arange(k)  # the problem each active row solves
    tv, bound, gap = np.full(k, np.inf), np.full(k, -np.inf), np.empty(k)
    iters = np.full(k, config.max_iters)
    reason = np.full(k, "budget", dtype=object)
    zero, one = values == 0.0, values == 1.0
    binary = (zero | one).all(axis=1) & zero.any(axis=1) & one.any(axis=1)
    for r in range(1, config.max_iters + 1):
        divergence = sweeper.sweep(x_prev, x_cur, y, values)
        x_prev, x_cur = x_cur, x_prev
        if r % _CHECK_EVERY and r < config.max_iters:
            continue
        clipped, tv_now, bound_now = sweeper.certify(x_cur, divergence, values)
        better = tv_now < tv[rows]
        scores[rows[better]] = clipped[better]
        tv[rows[better]] = tv_now[better]
        bound[rows] = np.maximum(bound[rows], bound_now)
        gap[rows] = (tv[rows] - bound[rows]) / np.maximum(1.0, tv[rows])
        stop = gap[rows] <= config.tol
        reason[rows[stop]] = "gap"
        if binary.any():
            # OPT of a 0/1 row is an integer: a level set that reaches the
            # rounded-up bound is an optimum
            floor = np.ceil(bound[rows] - 1e-9 * np.maximum(1.0, np.abs(bound[rows])))
            exact, signal = sweeper.level_sets(clipped, np.where(binary, floor, -np.inf))
            if signal is not None:
                done = rows[exact]
                scores[done] = signal[exact]
                tv[done] = sweeper.tv(signal)[exact]
                bound[done], gap[done], reason[done] = floor[exact], 0.0, "level_set"
                stop |= exact
        if not stop.any():
            continue
        iters[rows[stop]] = r
        x_prev, x_cur, y, values, binary, rows = (
            _compact(a, ~stop) for a in (x_prev, x_cur, y, values, binary, rows)
        )
        sweeper.keep_rows(rows.size)
        if rows.size == 0:
            break
    return [
        SolveDiagnostics(int(i), float(t), bool(e <= config.tol), float(b), float(e), s)
        for i, t, b, e, s in zip(iters, tv, bound, gap, reason)
    ]


def solve(
    g: Graph, seed_values: dict, config: SolverConfig = SolverConfig()
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Run sweeps until a level set or the duality gap is certified, or
    max_iters is reached.

    The one-problem case of :func:`solve_batch`: returns (x, diagnostics)
    for the labeled values given as a {node: value} dict.
    """
    ids = sorted(seed_values)
    scores, diagnostics = solve_batch(g, ids, [[seed_values[i] for i in ids]], config)
    return scores[0], diagnostics[0]
