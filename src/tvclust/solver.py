"""Primal-dual message passing for seed-constrained TV minimization.

Finds a signal of minimum total variation among all signals that take
prescribed values on a labeled node set M.  Each sweep is two-phase bulk
synchronous: an edge phase updates all dual messages from the extrapolated
primal iterate, then a node phase applies the degree-scaled descent step
and re-clamps the labeled nodes.  In order, one sweep computes

    x~_i  = 2 x_i - x_i^prev                      (extrapolation)
    y_e  += (1/2) (x~_head - x~_tail), then clip y_e to [-1, 1]
    x_i  -= gamma_i * (sum_{e: head=i} y_e - sum_{e: tail=i} y_e)
    x_i   = value_i  for labeled i                (exact constraint)
    xbar  = (1 - 1/r) xbar + (1/r) x              (running average, new r)

with fixed step sizes: 1/2 on edges and gamma_i = 1/d_i on nodes (the
diagonally preconditioned primal-dual splitting, which converges for this
operator scaling).  The solver reports a running average of the primal
iterates, whose labeled entries are clamped too (a mathematical no-op that
keeps the constraint residual exactly zero in floating point).

A from-scratch average remembers the start-up transient forever (its error
decays only like 1/r even after the iterates have settled), so
:func:`solve` by default discards the first ``burn_in`` sweeps and averages
the remainder; ``burn_in=0`` gives the plain average over every sweep.
:func:`iterate` itself always maintains the plain from-start average in
``SolverState.x_bar``.

Isolated nodes have no messages; they keep gamma_i = 1 and simply hold
their initial value (0, or the clamped seed value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from tvclust.graphs import Graph, total_variation


class SeedValuesError(ValueError):
    """The labeled node set is empty or malformed."""


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 2000
    tol: float = 1e-6  # sup-norm change of the reported average per sweep
    record_history: bool = False
    burn_in: int | None = None  # sweeps excluded from the output average;
    # None means max_iters // 2, 0 means average from the first sweep

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")
        if self.burn_in is not None and not 0 <= self.burn_in < self.max_iters:
            raise ValueError("burn_in must lie in 0..max_iters-1")

    @property
    def effective_burn_in(self) -> int:
        return self.max_iters // 2 if self.burn_in is None else self.burn_in


@dataclass(frozen=True)
class SolverState:
    x_prev: np.ndarray  # primal iterate of the previous sweep
    x_cur: np.ndarray  # current primal iterate (clamped on labeled nodes)
    y: np.ndarray  # per-edge dual messages, |y_e| <= 1
    x_bar: np.ndarray  # running average of primal iterates
    r: int  # completed sweeps
    gamma: np.ndarray  # per-node step sizes 1/d_i (1 on isolated nodes)


@dataclass(frozen=True)
class SolveDiagnostics:
    iters: int
    tv_final: float
    converged: bool
    residual_sup: float  # sup over labeled nodes of |xbar - value|; 0 by clamping
    x_hat_history: tuple = field(default=(), repr=False)

    def as_text(self) -> str:
        return (
            f"iters={self.iters} tv_final={self.tv_final!r} "
            f"converged={self.converged} residual_sup={self.residual_sup!r}"
        )


def _seed_arrays(g: Graph, seed_values: dict) -> tuple[np.ndarray, np.ndarray]:
    if not seed_values:
        raise SeedValuesError("labeled node set must be nonempty")
    idx = np.asarray(sorted(seed_values), dtype=np.int64)
    if idx.min() < 0 or idx.max() >= g.num_nodes:
        raise SeedValuesError(f"labeled node id outside 0..{g.num_nodes - 1}")
    vals = np.asarray([float(seed_values[int(i)]) for i in idx])
    if not np.isfinite(vals).all():
        raise SeedValuesError("labeled values must be finite")
    return idx, vals


def initialize(g: Graph, seed_values: dict) -> SolverState:
    """Zero state: both primal iterates, all duals and the average at 0."""
    _seed_arrays(g, seed_values)
    gamma = np.ones(g.num_nodes)
    nonzero = g.degrees > 0
    gamma[nonzero] = 1.0 / g.degrees[nonzero]
    return SolverState(
        x_prev=np.zeros(g.num_nodes),
        x_cur=np.zeros(g.num_nodes),
        y=np.zeros(g.num_edges),
        x_bar=np.zeros(g.num_nodes),
        r=0,
        gamma=gamma,
    )


def iterate(state: SolverState, g: Graph, seed_values: dict) -> SolverState:
    """One full sweep; returns a fresh state, inputs untouched."""
    idx, vals = _seed_arrays(g, seed_values)
    x_tilde = 2.0 * state.x_cur - state.x_prev
    y = state.y + 0.5 * (x_tilde[g.heads] - x_tilde[g.tails])
    np.clip(y, -1.0, 1.0, out=y)
    divergence = np.bincount(g.heads, weights=y, minlength=g.num_nodes)
    divergence -= np.bincount(g.tails, weights=y, minlength=g.num_nodes)
    x_new = state.x_cur - state.gamma * divergence
    x_new[idx] = vals
    r = state.r + 1
    x_bar = (1.0 - 1.0 / r) * state.x_bar + (1.0 / r) * x_new
    x_bar[idx] = vals
    return SolverState(
        x_prev=state.x_cur,
        x_cur=x_new,
        y=y,
        x_bar=x_bar,
        r=r,
        gamma=state.gamma,
    )


def solve(
    g: Graph, seed_values: dict, config: SolverConfig = SolverConfig()
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Run sweeps until the reported average stalls or max_iters is reached.

    Returns (x_bar, diagnostics) where x_bar averages the primal iterates
    of sweeps burn_in+1 .. r.  Non-convergence within max_iters is not an
    error (the problem always has a solution); it is reported through the
    `converged` flag.
    """
    idx, vals = _seed_arrays(g, seed_values)
    burn_in = config.effective_burn_in
    state = initialize(g, seed_values)
    history = []
    tail_sum = np.zeros(g.num_nodes)
    tail_count = 0
    out_bar = state.x_bar
    converged = False
    for _ in range(config.max_iters):
        state = iterate(state, g, seed_values)
        if config.record_history:
            history.append(state.x_cur.copy())
        if state.r <= burn_in:
            continue
        tail_sum += state.x_cur
        tail_count += 1
        prev_bar, out_bar = out_bar, tail_sum / tail_count
        if tail_count >= 2 and np.abs(out_bar - prev_bar).max() < config.tol:
            converged = True
            break
    out_bar[idx] = vals  # exact by construction; remove float summation dust
    residual = float(np.abs(out_bar[idx] - vals).max())
    diagnostics = SolveDiagnostics(
        iters=state.r,
        tv_final=total_variation(g, out_bar),
        converged=converged,
        residual_sup=residual,
        x_hat_history=tuple(history),
    )
    return out_bar, diagnostics


def round_to_indicator(x: np.ndarray) -> np.ndarray:
    """Threshold at 1/2; exact halves go to 0 (deterministic tie rule)."""
    return (np.asarray(x) > 0.5).astype(float)
