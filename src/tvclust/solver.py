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

:func:`solve` is the one-problem case.  Isolated nodes have no messages;
they keep gamma_i = 1 and hold their initial value (0 or the seed value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tvclust.graphs import Graph, checked_int_array

_CHECK_EVERY = 8  # sweeps between two certificate checks of a row
# rows x edges swept together: past it batching saves no dispatch cost, and
# groups keep the (rows, E) buffers a few MB however many rows there are
_ROW_EDGES = 1 << 16


class SeedValuesError(ValueError):
    """The labeled node set is empty or malformed."""


class SolverConfigError(ValueError):
    """A sweep budget below 1 or a negative or non-finite tolerance."""


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 2000
    tol: float = 1e-6  # relative duality gap (TV - bound) / max(1, TV) to stop at

    def __post_init__(self):
        if self.max_iters < 1:
            raise SolverConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise SolverConfigError(f"tol must be finite and >= 0, got {self.tol}")


@dataclass(frozen=True)
class SolveDiagnostics:
    iters: int
    tv_final: float  # TV of the returned signal
    converged: bool  # gap <= tol
    bound: float  # certified lower bound on the optimal TV
    gap: float  # (tv_final - bound) / max(1, tv_final)

    def as_text(self) -> str:
        return (f"iters={self.iters} tv_final={self.tv_final!r} bound={self.bound!r} "
                f"gap={self.gap!r} converged={self.converged}")


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
        """The (k, N) iterate x clipped to each row's seed-value range [lo,
        hi] (a view of a work buffer), its TV per row, and the weak-duality
        bound per row of the messages whose divergence is given."""
        lo = seed_values.min(axis=1, keepdims=True)
        hi = seed_values.max(axis=1, keepdims=True)
        clipped = np.clip(x, lo, hi, out=self.x_tilde)
        flat = clipped.reshape(-1)
        diff = flat.take(self.heads, out=self.diff, mode="clip")
        diff -= flat.take(self.tails, out=self.at_tails, mode="clip")
        tv = np.abs(diff, out=diff).reshape(len(x), -1).sum(axis=1)
        terms = np.minimum(divergence * lo, divergence * hi)
        at_seeds = divergence.reshape(-1)[self.seeds] * seed_values.reshape(-1)
        terms.reshape(-1)[self.seeds] = at_seeds
        return clipped, tv, terms.sum(axis=1)


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
    to the range of its labeled values, and one diagnostics entry per row.
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
        if not stop.any():
            continue
        iters[rows[stop]] = r
        x_prev, x_cur, y, values, rows = (
            _compact(a, ~stop) for a in (x_prev, x_cur, y, values, rows)
        )
        sweeper.keep_rows(rows.size)
        if rows.size == 0:
            break
    return [
        SolveDiagnostics(int(i), float(t), bool(e <= config.tol), float(b), float(e))
        for i, t, b, e in zip(iters, tv, bound, gap)
    ]


def solve(
    g: Graph, seed_values: dict, config: SolverConfig = SolverConfig()
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Run sweeps until the duality gap is certified or max_iters is reached.

    The one-problem case of :func:`solve_batch`: returns (x, diagnostics)
    for the labeled values given as a {node: value} dict.
    """
    ids = sorted(seed_values)
    scores, diagnostics = solve_batch(g, ids, [[seed_values[i] for i in ids]], config)
    return scores[0], diagnostics[0]


def round_to_indicator(x: np.ndarray) -> np.ndarray:
    """Threshold at 1/2; exact halves go to 0 (deterministic tie rule)."""
    return (np.asarray(x) > 0.5).astype(float)
