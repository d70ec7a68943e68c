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
in-place arrays.  One sweep of the diagonally preconditioned primal-dual
method of Chambolle and Pock (2011), with gamma_i = 1/d_i, is

    x~_i  = 2 x_i - x_i^prev                      (extrapolation)
    y_e  += (1/2) (x~_head - x~_tail), then clip y_e to [-1, 1]
    r_i   = sum_{e: head=i} y_e - sum_{e: tail=i} y_e       (r = div y)
    x_i  -= gamma_i r_i, then x_i = value_i for labeled i

and it is computed, row by row, as h_i = x_i - x_i^prev / 2 and y_e +=
h_head - h_tail.  That is the same sweep bit for bit: halving and doubling
are exact in binary floating point (short of subnormal numbers), so h_i =
fl(2 x_i - x_i^prev) / 2 and h_head - h_tail = fl(x~_head - x~_tail) / 2.
The clips are in-place ``np.minimum`` and ``np.maximum``, which equal
``np.clip`` except on -0.0, a value no iterate or message takes (they
start at +0.0, and a sum or difference is -0.0 only if its first term
is).  A group's rows lie one after another in flat arrays, gathered at
flattened indices, and r is one ``np.bincount`` over the heads minus one
over the tails; bincount adds in input order, so each row is summed
exactly as in a one-row solve and its result depends neither on K nor on
its group.

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
_NO_CUT = np.iinfo(np.int64).max  # the least cut of a row ignores this entry


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
    if ids.ndim != 1 or (ids[1:] <= ids[:-1]).any():
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
    """The k 0/1 targets swept together: step sizes, flattened edge and
    seed indices, iterates, messages and work buffers.  Every array is
    flat, row after row, so dropping rows keeps a leading slice, and every
    buffer is allocated once: a fresh array per sweep costs a page fault
    per 4 KiB whenever it is returned to the system.
    """

    def __init__(self, g: Graph, seed_ids: np.ndarray, targets: np.ndarray):
        k, n = targets.shape[0], g.num_nodes
        self.row_start = np.arange(0, k * n, n)[:, None]  # row i's flat offset
        self.heads = (g.heads + self.row_start).ravel()
        self.tails = (g.tails + self.row_start).ravel()
        self.seeds = (seed_ids + self.row_start).ravel()
        self.values = targets.astype(np.float64).ravel()
        gamma = 1.0 / np.maximum(g.degrees, 1)  # 1 on isolated nodes
        self.gamma = gamma[None].repeat(k, axis=0).ravel()
        self.index = np.arange(k * n).reshape(k, n)
        self.x_prev, self.x = np.zeros(k * n), np.zeros(k * n)
        self.y = np.zeros(self.heads.size)
        self.half = np.empty(k * n)
        self.diff, self.at_tails = np.empty(self.heads.size), np.empty(self.heads.size)
        self.divergence = None  # r = div y of the last sweep

    def keep_rows(self, keep: np.ndarray) -> None:
        """Sweep only the rows where `keep` is true from now on."""
        k, m = keep.size, int(keep.sum())
        for name in ("x_prev", "x", "y", "values"):
            rows = getattr(self, name).reshape(k, -1)
            rows[:m] = rows[keep]
            setattr(self, name, rows[:m].reshape(-1))
        for name in ("heads", "tails", "seeds", "gamma", "half", "diff", "at_tails"):
            a = getattr(self, name)
            setattr(self, name, a[: a.size // k * m])
        self.row_start, self.index = self.row_start[:m], self.index[:m]

    def sweep(self) -> None:
        """One sweep in place of the iterates x_prev, x and the messages y."""
        x, half, y = self.x, self.half, self.y
        # x~/2 = x - x_prev/2 is exactly fl(2 x - x_prev)/2: the messages'
        # step 1/2 is folded into the extrapolation
        np.multiply(self.x_prev, 0.5, out=half)
        np.subtract(x, half, out=half)
        # mode="clip" never clips (the indices are in range) and, unlike
        # the default, writes to `out` without an intermediate copy
        diff = half.take(self.heads, out=self.diff, mode="clip")
        diff -= half.take(self.tails, out=self.at_tails, mode="clip")
        y += diff
        np.minimum(y, 1.0, out=y)
        np.maximum(y, -1.0, out=y)
        divergence = np.bincount(self.heads, weights=y, minlength=x.size)
        divergence -= np.bincount(self.tails, weights=y, minlength=x.size)
        x_next = self.x_prev
        np.multiply(divergence, self.gamma, out=x_next)
        np.subtract(x, x_next, out=x_next)
        x_next[self.seeds] = self.values
        self.x_prev, self.x, self.divergence = x, x_next, divergence

    def certify(self):
        """The (k, N) iterate clipped to [0, 1] (a view of a work buffer)
        and the weak-duality bound per row of the last sweep's messages."""
        clipped = np.minimum(self.x, 1.0, out=self.half)
        np.maximum(clipped, 0.0, out=clipped)
        divergence = self.divergence
        terms = np.minimum(divergence, 0.0)
        terms[self.seeds] = divergence[self.seeds] * self.values
        k = self.row_start.size
        return clipped.reshape(k, -1), terms.reshape(k, -1).sum(axis=1)

    def level_sets(self, clipped, floor):
        """Which rows of the clipped (k, N) iterate have a level set {x > t},
        t below the row's top value, that cuts at most `floor` edges, and
        the (m, N) signals of those m rows, each the average of its optimal
        level sets weighted by threshold length (None when m is 0).

        With a row's nodes sorted by value, each level set is the complement
        of the first m + 1 nodes, for the m at which the sorted value steps
        up; an edge crosses that prefix iff its lower rank is <= m < its
        higher rank, so one cumulative sum gives the cut of every prefix.
        """
        k, n = clipped.shape
        # flat indices, row by row in ascending value; ties have no level
        # set between them, so their order does not matter
        order = clipped.argsort(axis=1)
        order += self.row_start
        rank = np.empty(k * n, dtype=np.int64)  # rank in the row + row * N
        rank[order] = self.index
        at_heads, at_tails = rank.take(self.heads), rank.take(self.tails)
        crossings = np.bincount(np.minimum(at_heads, at_tails), minlength=k * n)
        crossings -= np.bincount(np.maximum(at_heads, at_tails), minlength=k * n)
        cut = crossings.reshape(k, n).cumsum(axis=1)
        # prefix m is the complement of {x > t} for t in [value m, value m + 1)
        ascending = clipped.take(order)
        length = np.empty((k, n))
        np.subtract(ascending[:, 1:], ascending[:, :-1], out=length[:, :-1])
        length[:, -1] = 0.0
        least = np.where(length > 0, cut, _NO_CUT).min(axis=1)
        exact = least <= floor
        if not exact.any():
            return exact, None
        optimal = cut[exact] == least[exact, None]
        total = np.where(optimal, length[exact], 0.0).cumsum(axis=1)
        by_rank = np.zeros(total.shape)
        by_rank[:, 1:] = total[:, :-1] / total[:, -1:]
        signal = np.zeros(k * n)
        # on a grid of 2^-24 steps every edge difference and every partial
        # sum of the TV is exact below 2^29 edges: the signal's TV is OPT
        signal[order[exact]] = np.rint(by_rank * 2.0**24) / 2.0**24
        return exact, signal.reshape(k, n)[exact]


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
    # row k's distinct values a_0 < ... < a_m are where its sorted values
    # step up; its targets [value >= a_j], j = 1..m, come one after another
    ascending = np.sort(seed_values, axis=1)
    owner, j = np.nonzero(ascending[:, 1:] != ascending[:, :-1])
    lo, hi = ascending[owner, j], ascending[owner, j + 1]  # a_{j-1} and a_j
    targets = seed_values[owner] >= hi[:, None]
    count = np.bincount(owner, minlength=len(seed_values)).tolist()
    last = np.cumsum(count).tolist()  # one past each row's last target
    iters, bound, certified = (np.empty(len(targets), t) for t in (int, float, bool))
    scores = np.repeat(ascending[:, :1], g.num_nodes, axis=1)
    term = np.empty(g.num_nodes)
    owner_of, lo_of, hi_of = owner.tolist(), lo.tolist(), hi.tolist()
    group = max(1, _ROW_EDGES // max(1, g.num_edges))
    for i in range(0, len(targets), group):
        part = slice(i, i + group)
        u = np.empty((len(targets[part]), g.num_nodes))
        iters[part], bound[part], certified[part] = _solve_rows(
            g, seed_ids, targets[part], config.max_iters, u
        )
        # x = sum_j a_j (u_j - u_{j+1}), added up in ascending j; a group
        # keeps only its own targets' signals, so `above` carries u_{j-1}
        for t, u_j in enumerate(u, i):
            k = owner_of[t]
            first = t == 0 or owner_of[t - 1] != k
            row = scores[k]
            np.subtract(1.0 if first else above, u_j, out=term)
            term *= lo_of[t]
            np.add(0.0 if first else row, term, out=row)
            if t + 1 == last[k]:
                np.multiply(u_j, hi_of[t], out=term)
                row += term
            above = u_j
    weighted = (hi - lo) * bound  # target j's share of its row's bound
    iters_of, certified_of = iters.tolist(), certified.tolist()
    diagnostics = []
    for k, end in enumerate(last):
        mine = slice(end - count[k], end)
        tv = total_variation(g, scores[k])
        lower = float(weighted[mine].sum())
        done = all(certified_of[mine])
        diagnostics.append(SolveDiagnostics(
            max(iters_of[mine], default=0), tv, done, lower,
            0.0 if done else (tv - lower) / max(1.0, tv),
            "level_set" if done else "budget",
        ))
    return scores, tuple(diagnostics)


def _solve_rows(g, seed_ids, targets, max_iters, signals):
    """Sweep the (k, S) boolean targets until each certifies a level set or
    the budget runs out, writing their signals to the (k, N) `signals`.
    Returns per target its sweep count, its bound (the rounded-up one if
    it certified) and whether it certified."""
    k = targets.shape[0]
    sweeper = _Sweeper(g, seed_ids, targets)
    rows = np.arange(k)  # the target each active row solves
    best = np.full(k, -np.inf)  # the greatest bound of each active row
    bound, iters = np.empty(k), np.full(k, max_iters)
    certified = np.zeros(k, dtype=bool)
    for r in range(1, max_iters + 1):
        sweeper.sweep()
        if r % _CHECK_EVERY and r < max_iters:
            continue
        clipped, bound_now = sweeper.certify()
        np.maximum(best, bound_now, out=best)
        if r == max_iters:
            signals[rows], bound[rows] = clipped, best
        # OPT is an integer: a level set that reaches the rounded-up bound
        # is an optimum
        floor = np.ceil(best - 1e-9 * np.maximum(1.0, np.abs(best)))
        exact, signal = sweeper.level_sets(clipped, floor)
        if signal is None:
            continue
        done = rows[exact]
        signals[done], bound[done] = signal, floor[exact]
        iters[done], certified[done] = r, True
        keep = ~exact
        if not keep.any():
            break
        rows, best = rows[keep], best[keep]
        sweeper.keep_rows(keep)
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
