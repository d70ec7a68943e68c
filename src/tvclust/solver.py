"""Primal-dual message passing for seed-constrained TV minimization.

Finds a signal of minimum total variation among all signals that take
prescribed values on a labeled node set M.  One kernel,
:func:`solve_batch`, runs K such problems at once: they share the graph
and the labeled node ids, and row k of a (K, S) matrix gives problem k's
labeled values (``cluster()`` passes its K one-vs-rest indicator targets).
The K primal iterates form one (K, N) array and the dual messages one
(K, E) array, allocated once and updated in place.  Each sweep is
two-phase bulk synchronous: an edge phase updates all dual messages from
the extrapolated primal iterate, then a node phase applies the
degree-scaled descent step and re-clamps the labeled nodes.  In order, one
sweep computes, row by row,

    x~_i  = 2 x_i - x_i^prev                      (extrapolation)
    y_e  += (1/2) (x~_head - x~_tail), then clip y_e to [-1, 1]
    x_i  -= gamma_i * (sum_{e: head=i} y_e - sum_{e: tail=i} y_e)
    x_i   = value_i  for labeled i                (exact constraint)

with fixed step sizes: 1/2 on edges and gamma_i = 1/d_i on nodes (the
diagonally preconditioned primal-dual splitting, which converges for this
operator scaling).  Row k's edges are gathered at heads + k N and
tails + k N of the flattened iterate, and the divergence of all rows is
one ``np.bincount`` over the flattened heads minus one over the flattened
tails.  ``bincount`` adds its weights in input order, so every row is
summed in exactly the order of a one-row solve: a row's result does not
depend on K or on the other rows.

A from-scratch average remembers the start-up transient forever (its error
decays only like 1/r even after the iterates have settled), so the solver
discards the first ``max_iters // 2`` sweeps (the burn-in) and reports the
average of the remaining primal iterates.
Its labeled entries are set to the seed values too (a mathematical no-op
that removes floating-point dust), so they hold the constraint exactly.
A row stops when its average moves by less than ``tol`` in sup norm over
one sweep; it then leaves the batch with its own sweep count, so no row
runs more sweeps than it would alone.

:func:`solve` is the one-problem case.

Isolated nodes have no messages; they keep gamma_i = 1 and simply hold
their initial value (0, or the clamped seed value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tvclust.graphs import Graph, total_variation


class SeedValuesError(ValueError):
    """The labeled node set is empty or malformed."""


class SolverConfigError(ValueError):
    """A sweep budget below 1 or a negative or non-finite tolerance."""


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 2000
    tol: float = 1e-6  # sup-norm change of the reported average per sweep

    def __post_init__(self):
        if self.max_iters < 1:
            raise SolverConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise SolverConfigError(f"tol must be finite and >= 0, got {self.tol}")


@dataclass(frozen=True)
class SolveDiagnostics:
    iters: int
    tv_final: float
    converged: bool

    def as_text(self) -> str:
        return (
            f"iters={self.iters} tv_final={self.tv_final!r} "
            f"converged={self.converged}"
        )


def _check_seeds(g: Graph, seed_ids, seed_values) -> tuple[np.ndarray, np.ndarray]:
    """The (S,) ascending labeled node ids as int64 and the (K, S) values,
    one row per problem, as float64."""
    ids, values = np.asarray(seed_ids), np.asarray(seed_values, dtype=np.float64)
    if ids.size == 0:
        raise SeedValuesError("labeled node set must be nonempty")
    if ids.dtype.kind not in "iuf" or not np.isfinite(ids).all() or (ids % 1).any():
        raise SeedValuesError(f"labeled node ids must be integers, got {ids}")
    ids = ids.astype(np.int64)
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


def _step_sizes(g: Graph) -> np.ndarray:
    gamma = np.ones(g.num_nodes)
    nonzero = g.degrees > 0
    gamma[nonzero] = 1.0 / g.degrees[nonzero]
    return gamma


class _Sweeper:
    """Step sizes, flattened edge and seed indices and work buffers for k rows.

    The (k, E) edge gathers go to buffers allocated once: a fresh array of
    that size per sweep costs a page fault per 4 KiB whenever the allocator
    returns it to the system between sweeps.
    """

    def __init__(self, g: Graph, seed_ids: np.ndarray, rows: int):
        offsets = np.arange(rows, dtype=np.int64)[:, None] * g.num_nodes
        self.heads = (g.heads + offsets).ravel()
        self.tails = (g.tails + offsets).ravel()
        self.seeds = (seed_ids + offsets).ravel()
        self.gamma = _step_sizes(g)
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

    def sweep(self, x_prev, x_cur, y, seed_values) -> None:
        """One sweep in place: updates the (k, E) messages y and overwrites
        x_prev with the new (k, N) iterate; the caller then swaps x_prev and
        x_cur.  All arrays are C-contiguous, seed_values is (k, S).
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
        divergence *= self.gamma
        np.subtract(x_cur, divergence, out=x_prev)
        x_prev.reshape(-1)[self.seeds] = seed_values.reshape(-1)


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
    matrix whose row k averages problem k's primal iterates of sweeps
    max_iters//2 + 1 .. r, and one diagnostics entry per row.  Non-convergence
    within max_iters is not an error (the problem always has a solution);
    it is reported through the `converged` flag.
    """
    seed_ids, seed_values = _check_seeds(g, seed_ids, seed_values)
    k, n = seed_values.shape[0], g.num_nodes
    burn_in = config.max_iters // 2
    sweeper = _Sweeper(g, seed_ids, k)
    x_prev, x_cur = np.zeros((k, n)), np.zeros((k, n))
    y = np.zeros((k, g.num_edges))
    tail_sum = np.zeros((k, n))
    out_bar, prev_bar = np.zeros((k, n)), np.zeros((k, n))
    values = seed_values.copy()
    rows = np.arange(k)  # the problem each active row solves
    scores = np.empty((k, n))
    iters = np.full(k, config.max_iters)
    converged = np.zeros(k, dtype=bool)
    for r in range(1, config.max_iters + 1):
        sweeper.sweep(x_prev, x_cur, y, values)
        x_prev, x_cur = x_cur, x_prev
        if r <= burn_in:
            continue
        tail_sum += x_cur
        prev_bar, out_bar = out_bar, prev_bar
        np.divide(tail_sum, r - burn_in, out=out_bar)
        if r - burn_in < 2:
            continue
        change = np.abs(np.subtract(out_bar, prev_bar, out=prev_bar)).max(axis=1)
        stop = change < config.tol
        if not stop.any():
            continue
        done = rows[stop]
        scores[done] = out_bar[stop]
        iters[done] = r
        converged[done] = True
        keep = ~stop
        x_prev, x_cur, y, tail_sum, out_bar, values, rows = (
            _compact(a, keep) for a in (x_prev, x_cur, y, tail_sum, out_bar, values, rows)
        )
        prev_bar = prev_bar[: rows.size]
        sweeper.keep_rows(rows.size)
        if rows.size == 0:
            break
    scores[rows] = out_bar
    scores[:, seed_ids] = seed_values  # exact by construction; remove float dust
    diagnostics = tuple(
        SolveDiagnostics(
            iters=int(iters[j]),
            tv_final=total_variation(g, scores[j]),
            converged=bool(converged[j]),
        )
        for j in range(k)
    )
    return scores, diagnostics


def solve(
    g: Graph, seed_values: dict, config: SolverConfig = SolverConfig()
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Run sweeps until the reported average stalls or max_iters is reached.

    The one-problem case of :func:`solve_batch`: returns (x_bar,
    diagnostics) for the labeled values given as a {node: value} dict.
    """
    ids = sorted(seed_values)
    scores, diagnostics = solve_batch(g, ids, [[seed_values[i] for i in ids]], config)
    return scores[0], diagnostics[0]


def round_to_indicator(x: np.ndarray) -> np.ndarray:
    """Threshold at 1/2; exact halves go to 0 (deterministic tie rule)."""
    return (np.asarray(x) > 0.5).astype(float)
