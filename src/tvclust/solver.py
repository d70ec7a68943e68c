"""Primal-dual message passing for seed-constrained TV minimization.

Finds a signal of minimum total variation among all signals that take
prescribed values on a labeled node set M.  :func:`solve_batch` runs K such
problems on one graph and labeled set (row k of a (K, S) matrix holds
problem k's values); it is the one-graph case of ``_solve_many``, which
runs such batches for many graphs with the same N at once (the runs of a
sweep).  solve_batch checks its inputs; ``_solve_many`` takes them checked,
and splits the rows into targets, puts their signals together and reads
their diagnostics in steps over the whole batch, apart from one
``total_variation`` per row.

A row with distinct labeled values a_0 < ... < a_m is split into the m 0/1
targets [value >= a_j].  If u_j is an optimum of target j, of TV C_j, then

    x = sum_{j=0..m} a_j (u_j - u_{j+1}),    u_0 = 1, u_{m+1} = 0,

is a_i on a node labeled a_i, exactly (one term is a_i, the others 0), and
TV(x) <= sum_j (a_j - a_{j-1}) C_j, which by the coarea formula is the
optimum of the row.  A row with one value is that constant, with no sweep.
The targets of all rows of all graphs run as one batch, in groups of as
many as fit in ``_ROW_EDGES`` summed edges, each group sharing one set of
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
is).  A group's rows lie one after another in flat arrays, each row of N
nodes with its own graph's edges and labeled nodes, gathered at flattened
indices, and r is one ``np.bincount`` over the heads minus one over the
tails; bincount adds in input order, and every per-row reduction and sort
runs on the row alone, so each row is computed exactly as in a one-row
solve and its result depends neither on K, nor on its group, nor on the
other graphs in it.

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
checked iterate, clipped, after ``max_iters`` sweeps (by default
``MAX_ITERS``, the one place that budget is set).  A row's ``stop_reason``
is "level_set" when all its targets certified, else "budget"; its
``iters`` is the most sweeps of its targets and its ``bound`` is
sum_j (a_j - a_{j-1}) times target j's bound.  A row whose
targets all certified is an optimum and reports gap 0: its float TV and
bound may still differ by rounding.

:func:`solve` is the one-problem case.  Isolated nodes have no messages;
they keep gamma_i = 1 and hold their initial value (0 or the seed value).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tvclust.graphs import Graph, checked_int, checked_int_array, total_variation

MAX_ITERS = 2000  # the default sweep budget of every solve
_CHECK_EVERY = 8  # sweeps between two certificate checks of a row
# summed edges of the targets swept together: past it batching saves no
# dispatch cost, and groups keep their edge buffers a few MB however many
# targets there are
_ROW_EDGES = 1 << 16
_NO_CUT = np.iinfo(np.int64).max  # the least cut of a row ignores this entry


class SeedValuesError(ValueError):
    """The labeled node set is empty or malformed."""


class SolverConfigError(ValueError):
    """A sweep budget that is not an integer >= 1."""


def _checked_max_iters(max_iters) -> int:
    """The sweep budget as an int, or SolverConfigError naming max_iters."""
    max_iters = checked_int(max_iters, SolverConfigError, "max_iters")
    if max_iters < 1:
        raise SolverConfigError(f"max_iters must be >= 1, got {max_iters}")
    return max_iters


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
    ids = _checked_ids(g, ids)
    if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] != ids.size:
        raise SeedValuesError(
            f"labeled values have shape {values.shape}, expected (K >= 1, {ids.size})"
        )
    if not np.isfinite(values).all():
        raise SeedValuesError("labeled values must be finite")
    return ids, values


def _checked_ids(g: Graph, seed_ids) -> np.ndarray:
    """The labeled node ids as an int64 array, or SeedValuesError unless
    they are nonempty, distinct, ascending and in 0..N-1."""
    ids = checked_int_array(seed_ids, SeedValuesError, "labeled node ids")
    if ids.size == 0:
        raise SeedValuesError("labeled node set must be nonempty")
    if ids.ndim != 1 or (ids[1:] <= ids[:-1]).any():
        raise SeedValuesError("labeled node ids must be distinct and ascending")
    if ids[0] < 0 or ids[-1] >= g.num_nodes:
        raise SeedValuesError(f"labeled node id outside 0..{g.num_nodes - 1}")
    return ids


class _Sweeper:
    """The k 0/1 targets swept together: step sizes, flattened edge and
    seed indices, iterates, messages and work buffers.  Row i solves
    targets[i], a (graph, seed ids, 0/1 values) triple; all graphs have the
    same N.  Every array is flat, row after row, and every work buffer is
    allocated once: a fresh array per sweep costs a page fault per 4 KiB
    whenever it is returned to the system.
    """

    def __init__(self, targets):
        k, n = len(targets), targets[0][0].num_nodes
        self.row_start = np.arange(0, k * n, n)[:, None]  # row i's flat offset
        graphs, ids, values = zip(*targets)
        start = self.row_start[:, 0]  # int64, so the int32 edge ids widen
        self.heads = np.concatenate([g.heads + s for g, s in zip(graphs, start)])
        self.tails = np.concatenate([g.tails + s for g, s in zip(graphs, start)])
        self.seeds = np.concatenate([i + s for i, s in zip(ids, start)])
        self.values = np.concatenate(values).astype(np.float64)
        # 1 on isolated nodes
        self.gamma = np.concatenate([1.0 / np.maximum(g.degrees, 1) for g in graphs])
        # per row: how many of the flat edge and seed entries are its own
        self.edges = np.array([g.num_edges for g in graphs])
        self.labeled = np.array([i.size for i in ids])
        self.index = np.arange(k * n).reshape(k, n)
        self.x_prev, self.x = np.zeros(k * n), np.zeros(k * n)
        self.y = np.zeros(self.heads.size)
        self.half = np.empty(k * n)
        self.diff, self.at_tails = np.empty(self.heads.size), np.empty(self.heads.size)
        self.divergence = None  # r = div y of the last sweep

    def keep_rows(self, keep: np.ndarray) -> None:
        """Sweep only the rows where `keep` is true from now on.

        A kept row moves up past the rows dropped before it: its edges and
        seeds keep their order, and their flat node indices drop by N per
        such row.
        """
        k, m, n = keep.size, int(keep.sum()), self.x.size // keep.size
        for name in ("x_prev", "x", "gamma"):
            rows = getattr(self, name).reshape(k, -1)
            rows[:m] = rows[keep]
            setattr(self, name, rows[:m].reshape(-1))
        shift = np.cumsum(~keep)[keep] * n
        on_edges, on_seeds = np.repeat(keep, self.edges), np.repeat(keep, self.labeled)
        self.edges, self.labeled = self.edges[keep], self.labeled[keep]
        self.y = self.y[on_edges]
        self.heads = self.heads[on_edges] - np.repeat(shift, self.edges)
        self.tails = self.tails[on_edges] - np.repeat(shift, self.edges)
        self.seeds = self.seeds[on_seeds] - np.repeat(shift, self.labeled)
        self.values = self.values[on_seeds]
        self.half = self.half[: self.x.size]
        self.diff, self.at_tails = self.diff[: self.y.size], self.at_tails[: self.y.size]
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
    max_iters: int = MAX_ITERS,
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
    max_iters = _checked_max_iters(max_iters)
    scores, diagnostics = _solve_many([(g, *_check_seeds(g, seed_ids, seed_values))],
                                      max_iters)
    return scores, tuple(diagnostics)


def _solve_many(problems, max_iters: int):
    """solve_batch of each (graph, seed_ids, seed_values) problem, all
    graphs with the same N and every input as solve_batch checks it, as
    one batch: the targets of all problems, in order, are swept in groups
    of as many as fit in _ROW_EDGES summed edges (one alone if it does not
    fit).  Returns the (R, N) signals of all R rows, problem after problem,
    and their R diagnostics.  Every step but the sweeps and the rows'
    total variations runs on the whole batch at once."""
    graphs, ids, values = zip(*problems)
    n = graphs[0].num_nodes
    of_row = np.repeat(np.arange(len(problems)), [len(v) for v in values])  # problem
    owner, lo, hi, flags, least = _thresholds(values, of_row)
    of_target = of_row[owner].tolist()
    targets = [(graphs[p], ids[p], f) for p, f in zip(of_target, flags)]
    edges = [g.num_edges for g in graphs]
    starts, total = [], 0  # the first target of each group
    for t, p in enumerate(of_target):
        if not starts or total + edges[p] > _ROW_EDGES:
            starts.append(t)
            total = 0
        total += edges[p]
    # a row with no target is its one value; the others are put together
    # from their targets' signals
    scores = np.repeat(least[:, None], n, axis=1)
    opens, closes = np.ones(owner.size, bool), np.ones(owner.size, bool)
    opens[1:] = closes[:-1] = owner[1:] != owner[:-1]  # a row's first, last target
    iters, bound, certified = (np.empty(owner.size, t) for t in (int, float, bool))
    above = None  # the signal of the last target swept
    for i, stop in zip(starts, starts[1:] + [owner.size]):
        u = np.empty((stop - i, n))
        iters[i:stop], bound[i:stop], certified[i:stop] = _solve_rows(
            targets[i:stop], max_iters, u
        )
        mine = slice(i, stop)
        above = _assemble(scores, u, above, owner[mine], lo[mine], hi[mine],
                          opens[mine], closes[mine])
    return scores, _diagnostics(scores, graphs, of_row, owner, lo, hi, iters, bound,
                                certified)


def _thresholds(values, of_row):
    """The 0/1 targets of the rows of every problem's (K, S) `values`, in
    row order and, within a row, in ascending j: per target its row, a_{j-1}
    and a_j, and its (S,) values [value >= a_j]; and a_0 of every row.

    Rows with the same S are sorted as one (rows, S) array, which sorts
    each row exactly as np.sort of its own problem's values would.
    """
    width = np.array([v.shape[1] for v in values])[of_row]
    least = np.empty(of_row.size)
    parts = []
    for s in np.unique(width).tolist():
        rows = np.flatnonzero(width == s)
        block = np.concatenate([v for v in values if v.shape[1] == s])
        ascending = np.sort(block, axis=1)
        least[rows] = ascending[:, 0]
        # row k's distinct values a_0 < ... < a_m are where its sorted
        # values step up; its targets are [value >= a_j], j = 1..m
        r, j = np.nonzero(ascending[:, 1:] != ascending[:, :-1])
        hi = ascending[r, j + 1]
        parts.append((rows[r], ascending[r, j], hi, block[r] >= hi[:, None]))
    owner, lo, hi = (np.concatenate([part[c] for part in parts]) for c in range(3))
    order = np.argsort(owner, kind="stable")
    flags = [f for part in parts for f in part[3]]
    return (owner[order], lo[order], hi[order], [flags[t] for t in order.tolist()],
            least)


def _assemble(scores, u, above, owner, lo, hi, opens, closes) -> np.ndarray:
    """Add a group's target signals u_j to their rows of `scores` as

        x = sum_{j=0..m} a_j (u_j - u_{j+1}),    u_0 = 1, u_{m+1} = 0,

    adding up each row's terms in ascending j, from 0.0 at its first
    target; `above` is the signal of the target swept before the group,
    and a row the group leaves unfinished keeps its partial sum.  Returns
    the signal of the group's last target; `u` is used up."""
    last_signal = u[-1].copy()
    terms = np.empty_like(u)
    terms[1:] = u[:-1]
    if above is not None:
        terms[0] = above
    terms[opens] = 1.0
    terms -= u
    terms *= lo[:, None]  # a_{j-1} (u_{j-1} - u_j)
    # turn each term into its row's running sum.  A sum from 0.0 is never
    # -0.0, so adding 0.0 to every term, which a row's first term needs,
    # leaves every later sum as it is
    terms += 0.0
    if not opens[0]:
        terms[0] += scores[owner[0]]  # the sum of the group before
    starts = opens.copy()  # where each row's run of targets in the group starts
    starts[0] = True
    place = np.arange(owner.size)  # the target's place in its row's run
    place -= np.maximum.accumulate(np.where(starts, place, 0))
    for p in range(1, int(place.max()) + 1):
        at = np.flatnonzero(place == p)
        terms[at] += terms[at - 1]
    u *= np.where(closes, hi, 0.0)[:, None]  # a_m u_m at a row's last target
    terms += u
    last = closes.copy()
    last[-1] = True
    scores[owner[last]] = terms[last]
    return last_signal


def _diagnostics(scores, graphs, of_row, owner, lo, hi, iters, bound, certified):
    """The diagnostics of every row, from its signal and its targets'."""
    rows = of_row.size
    count = np.bincount(owner, minlength=rows)
    most = np.zeros(rows, dtype=int)
    np.maximum.at(most, owner, iters)
    done = np.ones(rows, dtype=bool)
    done[owner[~certified]] = False
    # a row's bound sums its targets' shares (a_j - a_{j-1}) C_j as np.sum
    # of the row's shares alone would: rows with m targets as one (rows, m)
    weighted = (hi - lo) * bound
    lower = np.zeros(rows)
    first = np.cumsum(count) - count
    for m in np.unique(count[count > 0]).tolist():
        mine = np.flatnonzero(count == m)
        lower[mine] = weighted[first[mine, None] + np.arange(m)].sum(axis=1)
    # one total_variation per row: one gather over the whole batch's edges
    # costs more than the rows' own, at the batch sizes of a sweep
    tv = np.array([total_variation(graphs[p], x) for p, x in zip(of_row.tolist(), scores)])
    gap = np.where(done, 0.0, (tv - lower) / np.maximum(1.0, tv))
    done = done.tolist()
    return list(map(SolveDiagnostics, most.tolist(), tv.tolist(), done, lower.tolist(),
                    gap.tolist(), ["level_set" if d else "budget" for d in done]))


def _solve_rows(targets, max_iters, signals):
    """Sweep the (graph, seed ids, 0/1 values) targets until each
    certifies a level set or the budget runs out, writing their signals to
    the (k, N) `signals`.  Returns per target its sweep count, its bound
    (the rounded-up one if it certified) and whether it certified."""
    k = signals.shape[0]
    sweeper = _Sweeper(targets)
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
    g: Graph, seed_values: dict, max_iters: int = MAX_ITERS
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Run sweeps until every threshold target certifies a level set, or
    max_iters is reached.

    The one-problem case of :func:`solve_batch`: returns (x, diagnostics)
    for the labeled values given as a {node: value} dict.
    """
    ids = sorted(seed_values)
    values = [[seed_values[i] for i in ids]]
    scores, diagnostics = solve_batch(g, ids, values, max_iters)
    return scores[0], diagnostics[0]
