import functools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import random_connected_graph, random_graph, round_to_indicator
from tvclust.analysis import mincut_tv_oracle
from tvclust.clustering import _cluster_many, cluster, indicator_targets
from tvclust.graphs import build_graph, total_variation
from tvclust import solver
from tvclust.sbm import SbmParams, generate_instance
from tvclust.solver import (
    SeedValuesError,
    SolverConfigError,
    _Sweeper,
    solve,
    solve_batch,
)
from tvclust.sweep import SweepConfig, derive_instance_seed

TRIANGLES = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
PATH2 = build_graph(2, [(0, 1)])
CHECK_EVERY = 8  # the kernel's fixed check cadence


def reference_level_sets(g, x, floor):
    """The level-set stop by brute force on the clipped iterate x of a 0/1
    target: the cut of {x > t} at every value t of x below the top, then the
    optimal level sets averaged by threshold length, summed in ascending t
    and rounded to the 2^-24 grid; None when no level set cuts <= floor."""
    values = np.unique(x)
    lengths = np.diff(values)
    cuts = [int(((x > t)[g.heads] != (x > t)[g.tails]).sum()) for t in values[:-1]]
    if min(cuts) > floor:
        return None
    below, acc = {values[0]: 0.0}, 0.0  # weight of the optimal sets below t
    for next_t, length, cut in zip(values[1:], lengths, cuts):
        acc += length if cut == min(cuts) else 0.0
        below[next_t] = acc
    signal = np.array([below[v] / acc for v in x])
    return np.rint(signal * 2.0**24) / 2.0**24


def reference_target(g, seed_values, max_iters):
    """One 0/1 target, every sweep from fresh arrays: the unbatched loop
    with the level-set stop.  Returns (signal, iters, bound, certified)."""
    idx = np.array(sorted(seed_values))
    vals = np.array([seed_values[i] for i in idx], dtype=float)
    n = g.num_nodes
    gamma = np.ones(n)
    gamma[g.degrees > 0] = 1.0 / g.degrees[g.degrees > 0]
    x_prev, x, y = np.zeros(n), np.zeros(n), np.zeros(g.num_edges)
    best_bound = -np.inf
    for r in range(1, max_iters + 1):
        x_tilde = 2.0 * x - x_prev
        y = np.clip(y + 0.5 * (x_tilde[g.heads] - x_tilde[g.tails]), -1.0, 1.0)
        divergence = np.bincount(g.heads, weights=y, minlength=n)
        divergence -= np.bincount(g.tails, weights=y, minlength=n)
        x_prev, x = x, x - gamma * divergence
        x[idx] = vals
        if r % CHECK_EVERY and r < max_iters:
            continue
        clipped = np.clip(x, 0.0, 1.0)
        terms = np.minimum(divergence, 0.0)
        terms[idx] = vals * divergence[idx]
        best_bound = max(best_bound, terms.sum())
        floor = math.ceil(best_bound - 1e-9 * max(1.0, abs(best_bound)))
        signal = reference_level_sets(g, clipped, floor)
        if signal is not None:
            return signal, r, float(floor), True
    return clipped, r, best_bound, False


def reference_solve(g, seed_values, max_iters):
    """The threshold split by hand: each target [value >= a_j] of the
    distinct values a_0 < ... < a_m solved by reference_target, then x =
    sum_j a_j (u_j - u_{j+1}) with u_0 = 1, u_{m+1} = 0, added in ascending
    j.  Returns (x, iters, converged, tv, bound, gap, stop_reason)."""
    levels = np.unique(list(seed_values.values()))
    runs = [
        reference_target(g, {i: float(v >= a) for i, v in seed_values.items()},
                         max_iters)
        for a in levels[1:]
    ]
    u = [np.ones(g.num_nodes), *(run[0] for run in runs), np.zeros(g.num_nodes)]
    x = np.zeros(g.num_nodes)
    for j, a in enumerate(levels):
        x += a * (u[j] - u[j + 1])
    tv = np.abs(x[g.heads] - x[g.tails]).sum()
    bound = (np.diff(levels) * np.array([run[2] for run in runs])).sum()
    converged = all(run[3] for run in runs)
    iters = max((run[1] for run in runs), default=0)
    # a row whose targets all certified is an optimum: gap 0 however its
    # float TV and bound round
    gap = 0.0 if converged else (tv - bound) / max(1.0, tv)
    return x, iters, converged, tv, bound, gap, "level_set" if converged else "budget"


def assert_same_as_reference(x, diag, reference):
    ref_x, ref_iters, ref_converged, ref_tv, ref_bound, ref_gap, ref_reason = reference
    assert_array_equal(x, ref_x)
    assert diag.iters == ref_iters
    assert diag.converged == ref_converged
    assert diag.tv_final == ref_tv
    assert diag.bound == ref_bound
    assert diag.gap == ref_gap
    assert diag.stop_reason == ref_reason


@functools.cache
def reference_first_rep():
    """(instance, cluster() result) for the 60 runs of the reference sweep's
    first rep: sizes 50,50, p_out 0.025, p_in 0.025..0.5, S in {5, 10, 15},
    master seed 1."""
    runs = []
    for grid_i in range(20):
        p_in = round(0.025 * (grid_i + 1), 12)
        for s_i, s in enumerate((5, 10, 15)):
            seed = derive_instance_seed(1, grid_i, s_i, 0)
            instance = generate_instance(SbmParams((50, 50), p_in, 0.025), s, seed)
            runs.append((instance, cluster(instance.graph, instance.seeds.labels())))
    return tuple(runs)


def sweeps(g, seed_values, max_iters):
    """Output of a 0/1 solve of max_iters < CHECK_EVERY sweeps that does not
    certify at its one check: the last iterate, clipped to [0, 1]."""
    return solve(g, seed_values, max_iters)[0]


def raw_iterate(g, seed_values, count):
    """The kernel's primal iterate after `count` sweeps from zero, before
    the clip to the seed-value range."""
    ids = np.array(sorted(seed_values))
    sweeper = _Sweeper([(g, ids, np.array([seed_values[i] for i in ids], dtype=float))])
    for _ in range(count):
        sweeper.sweep()
    return sweeper.x


def reference_iterates(g, seed_ids, values):
    """The sweep line by line, one row at a time from fresh arrays: yields
    the (K, N) iterates after each sweep."""
    n = g.num_nodes
    gamma = np.ones(n)
    gamma[g.degrees > 0] = 1.0 / g.degrees[g.degrees > 0]
    x_prev, x = np.zeros((len(values), n)), np.zeros((len(values), n))
    y = np.zeros((len(values), g.num_edges))
    while True:
        for k, row_values in enumerate(values):
            x_tilde = 2.0 * x[k] - x_prev[k]
            step = 0.5 * (x_tilde[g.heads] - x_tilde[g.tails])
            y[k] = np.clip(y[k] + step, -1.0, 1.0)
            divergence = np.bincount(g.heads, weights=y[k], minlength=n)
            divergence -= np.bincount(g.tails, weights=y[k], minlength=n)
            x_prev[k], x[k] = x[k], x[k] - gamma * divergence
            x[k, seed_ids] = row_values
        yield x


def second_sweep_steps(g):
    """The step size gamma_j of every non-isolated node j, read off the
    iterate of two sweeps seeded at 1 on one neighbour i of j.

    Sweep 1 sets x_i = 1; sweep 2 extrapolates x_i to 2, the dual of edge
    {i, j} clips to +-1, and node j, whose other duals stay 0, moves to
    exactly gamma_j.
    """
    steps = np.full(g.num_nodes, np.nan)
    for i, j in g.edges.tolist():
        steps[j] = raw_iterate(g, {i: 1.0}, 2)[j]
        steps[i] = raw_iterate(g, {j: 1.0}, 2)[i]
    return steps


class TestInitialize:
    """What every solve starts from: zero iterates and duals, step sizes
    gamma_i = 1/d_i, and a validated labeled set."""

    def test_all_zero(self, bridge_graph):
        # from zero iterates and duals the first sweep moves no unlabeled node
        x_bar = sweeps(bridge_graph, {0: 1.0, 7: 0.0}, 1)
        assert_array_equal(x_bar, [1, 0, 0, 0, 0, 0, 0, 0])

    def test_gamma_two_node_path(self):
        assert_array_equal(second_sweep_steps(PATH2), [1.0, 1.0])

    def test_gamma_bridge_graph(self, bridge_graph):
        expected = [1 / 2, 1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 2]
        assert_array_equal(second_sweep_steps(bridge_graph), expected)

    def test_empty_seed_set(self, bridge_graph):
        with pytest.raises(SeedValuesError):
            solve(bridge_graph, {})

    def test_nonfinite_seed_value(self, bridge_graph):
        with pytest.raises(SeedValuesError):
            solve(bridge_graph, {0: np.inf})

    @pytest.mark.parametrize(
        "entry_point",
        [
            lambda g: cluster(g, {0.6: 1, 3: 2}),
            lambda g: solve_batch(g, [0.9, 3.2], [[1.0, 0.0]]),
            lambda g: solve(g, {1.5: 1.0, 3: 0.0}),
        ],
        ids=["cluster", "solve_batch", "solve"],
    )
    def test_non_integer_seed_id_rejected(self, bridge_graph, entry_point):
        with pytest.raises(SeedValuesError, match="must be integers"):
            entry_point(bridge_graph)

    def test_integer_valued_float_ids_accepted(self, bridge_graph):
        x_float, _ = solve_batch(bridge_graph, [0.0, 7.0], [[1.0, 0.0]], 30)
        x_int, _ = solve_batch(bridge_graph, [0, 7], [[1.0, 0.0]], 30)
        assert_array_equal(x_float, x_int)


class TestIterate:
    """The sweep, traced by hand on the 2-node path with node 0 clamped to 1,
    and checked against the reference for short budgets."""

    def test_first_sweep(self):
        assert_array_equal(raw_iterate(PATH2, {0: 1.0}, 1), [1.0, 0.0])
        # one seed value: the constant optimum, with no sweep
        x, diag = solve(PATH2, {0: 1.0}, max_iters=1)
        assert_array_equal(x, [1.0, 1.0])
        assert (diag.iters, diag.tv_final, diag.bound, diag.gap) == (0, 0, 0, 0)
        assert diag.converged and diag.stop_reason == "level_set"

    def test_second_sweep(self):
        # extrapolation (2, 0); dual 0 + (1/2)*2 = 1, clipped stays 1;
        # node 1 descends 0 - 1*(-1) = 1; node 0 re-clamped to 1
        assert_array_equal(raw_iterate(PATH2, {0: 1.0}, 2), [1.0, 1.0])

    def test_iterates_match_line_by_line_reference(self):
        # the kernel folds the messages' step 1/2 into the extrapolation and
        # clips without np.clip; every iterate stays bit for bit the same
        rng = np.random.default_rng(240)
        for trial in range(30):
            n = int(rng.integers(2, 40))
            drawn = random_graph(rng, n, float(rng.uniform(0.05, 0.5)))
            # up to three more nodes without an edge
            g = build_graph(n + int(rng.integers(1, 4)), drawn.edges)
            k = int(rng.integers(1, 5))
            s = int(rng.integers(1, g.num_nodes + 1))
            ids = np.sort(rng.choice(g.num_nodes, size=s, replace=False))
            if trial % 2:
                values = rng.uniform(-2.0, 2.0, size=(k, s))
            else:
                values = rng.integers(0, 2, size=(k, s)).astype(float)
            sweeper = _Sweeper([(g, ids, row) for row in values])
            reference = reference_iterates(g, ids, values)
            for _ in range(40):
                sweeper.sweep()
                assert_array_equal(sweeper.x.reshape(k, -1), next(reference))

    def test_dual_always_clipped(self):
        # the second sweep's jump (1/2) * 2 * value clips to sign(value),
        # so node 1 moves by gamma_1 = 1 whatever the seed value
        for value in (1.0, 5.0, 100.0, -3.0):
            x = raw_iterate(PATH2, {0: value}, 2)
            assert_array_equal(x, [value, np.sign(value)])

    def test_seeds_clamped_every_sweep(self, bridge_graph):
        # the reference clamps the labeled nodes after every sweep; a budget
        # whose one check certifies no level set returns the clipped last
        # iterate (here budgets 1-5 for the two-valued targets, 1-4 and 6-8
        # for the three-valued one)
        reasons = set()
        for seeds in ({0: 1.0, 7: 0.0}, {0: 0.3, 7: -1.7}, {0: 0.3, 3: 1.0, 7: -1.7}):
            for max_iters in range(1, 21):
                reference = reference_solve(bridge_graph, seeds, max_iters)
                x, diag = solve(bridge_graph, seeds, max_iters)
                assert_same_as_reference(x, diag, reference)
                reasons.add(reference[-1])
        assert reasons == {"budget", "level_set"}

    def test_inputs_not_mutated(self, bridge_graph):
        # row 0 has one value and takes no sweep, row 1 certifies at sweep
        # 8; the caller's arrays stay
        ids, values = np.array([0, 7]), np.array([[0.0, 0.0], [0.3, -1.7]])
        _, diagnostics = solve_batch(bridge_graph, ids, values, max_iters=100)
        assert diagnostics[0].iters < diagnostics[1].iters
        assert_array_equal(ids, [0, 7])
        assert_array_equal(values, [[0.0, 0.0], [0.3, -1.7]])


class TestConfig:
    """The sweep budget, max_iters, is checked once in solve_batch, and by
    SweepConfig before any run; every entry point names it."""

    ENTRY_POINTS = {
        "solve": lambda budget: solve(PATH2, {0: 1.0, 1: 0.0}, budget),
        "solve_batch": lambda budget: solve_batch(PATH2, [0, 1], [[1.0, 0.0]], budget),
        "cluster": lambda budget: cluster(PATH2, {0: 1, 1: 2}, budget),
        "SweepConfig": lambda budget: SweepConfig((2, 2), 0.1, (0.5,), (1,), 1, 0,
                                                  budget),
    }

    def test_bad_max_iters_rejected(self):
        with pytest.raises(SolverConfigError, match=r"^max_iters must be >= 1, got 0$"):
            solve(PATH2, {0: 1.0, 1: 0.0}, max_iters=0)

    @pytest.mark.parametrize("value", [10.5, "10", None, 0],
                             ids=lambda value: f"max_iters-{value}")
    def test_non_number_settings_named(self, value):
        # each of the first three used to raise a bare TypeError
        for name, entry_point in self.ENTRY_POINTS.items():
            with pytest.raises(SolverConfigError, match="max_iters"):
                entry_point(value)
                pytest.fail(f"{name} accepted max_iters={value!r}")

    def test_integer_valued_max_iters_stored_as_int(self):
        # 10.0 used to be accepted and then fail in solve with a TypeError
        config = self.ENTRY_POINTS["SweepConfig"](10.0)
        assert config.max_iters == 10 and type(config.max_iters) is int
        # a target that is still uncertified after 10 sweeps
        g = random_connected_graph(np.random.default_rng(3), 30, 0.3)
        x, diag = solve(g, {0: 1.0, 29: 0.0}, max_iters=10.0)
        assert (diag.iters, diag.stop_reason) == (10, "budget")
        x_int, diag_int = solve(g, {0: 1.0, 29: 0.0}, max_iters=10)
        assert_array_equal(x, x_int)
        assert diag == diag_int


class TestSolve:
    def test_two_disjoint_triangles(self):
        g = build_graph(6, TRIANGLES)
        x_bar, diag = solve(g, {0: 1.0, 3: 0.0}, max_iters=3000)
        assert_allclose(x_bar[:3], np.ones(3), atol=1e-3)
        assert_allclose(x_bar[3:], np.zeros(3), atol=1e-3)
        assert diag.tv_final < 1e-3

    def test_bridge_graph_block_indicator(self, bridge_graph):
        x_bar, diag = solve(bridge_graph, {0: 1.0, 7: 0.0}, max_iters=5000)
        indicator = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=float)
        assert_allclose(x_bar, indicator, atol=0.01)
        assert abs(diag.tv_final - 1.0) < 1e-3
        assert_array_equal(round_to_indicator(x_bar), indicator)

    def test_single_seed_goes_constant(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        x_bar, diag = solve(g, {0: 1.0}, max_iters=4000)
        assert_array_equal(x_bar, np.ones(4))
        assert diag.tv_final == 0.0 and diag.iters == 0

    def test_constraint_residual_zero(self, bridge_graph):
        x_bar, _ = solve(bridge_graph, {0: 0.3, 7: -1.7}, max_iters=137)
        assert x_bar[0] == 0.3 and x_bar[7] == -1.7

    def test_max_iters_respected(self, bridge_graph):
        # its target {0: 1, 7: 0} would certify a level set at a check after
        # sweep 6
        _, diag = solve(bridge_graph, {0: 0.3, 7: -1.7}, max_iters=5)
        assert diag.iters == 5
        assert not diag.converged and diag.stop_reason == "budget"

    def test_converged_flag(self):
        g = build_graph(6, TRIANGLES)
        _, diag = solve(g, {0: 1.0, 3: 0.0}, max_iters=5000)
        assert diag.converged
        assert diag.iters < 5000

    def test_zero_targets_stall_immediately(self):
        g = build_graph(6, TRIANGLES)
        x_bar, diag = solve(g, {0: 0.0, 3: 0.0}, max_iters=100)
        assert_array_equal(x_bar, np.zeros(6))
        assert diag.converged and diag.iters == 0

    def test_clipped_last_iterate(self, bridge_graph):
        # the 0.3/-1.7 target is the 0/1 target {0: 1, 7: 0}, which
        # certifies at a check after sweep 6; a smaller budget returns its
        # last iterate, clipped to [0, 1] and mapped onto [-1.7, 0.3]
        seeds = {0: 0.3, 7: -1.7}
        for max_iters in (3, 5, 12, 2000):
            x, diag = solve(bridge_graph, seeds, max_iters)
            assert diag.iters == min(max_iters, 8)
            assert diag.converged == (diag.gap == 0) == (max_iters >= 8)
            if not diag.converged:
                last = raw_iterate(bridge_graph, {0: 1.0, 7: 0.0}, max_iters)
                last = np.clip(last, 0.0, 1.0)
                assert_array_equal(x, -1.7 * (1.0 - last) + 0.3 * last)
            assert diag.tv_final == total_variation(bridge_graph, x)
            tv, bound = diag.tv_final, diag.bound
            if not diag.converged:
                assert diag.gap == (tv - bound) / max(1.0, tv)

    def test_scale_equivariance_of_constraints(self, bridge_graph):
        x1, _ = solve(bridge_graph, {0: 1.0, 7: 0.0}, max_iters=2000)
        x2, _ = solve(bridge_graph, {0: 2.0, 7: 0.0}, max_iters=2000)
        assert x2[0] == 2.0 and x2[7] == 0.0
        # symmetric decode unchanged: threshold at half the seed scale
        assert_array_equal(x2 > 1.0, x1 > 0.5)

    def test_tv_close_to_exact_minimum_small_random(self):
        # averaged iterate approaches the constrained TV minimum
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_connected_graph(rng, 10, 0.35)
            x_bar, diag = solve(g, {0: 1.0, 9: 0.0}, max_iters=5000)
            rounded_tv = total_variation(g, round_to_indicator(x_bar))
            assert diag.tv_final <= rounded_tv + 1e-3


class TestCertificate:
    """The reported bound and gap against exact optima: max-flow for binary
    seeds, and for two seed values a < b the binary optimum times b - a
    (TV commutes with the affine map from {0, 1} to {a, b})."""

    @staticmethod
    def slack(opt):
        # the bound and TV are float sums; they may pass an exact optimum
        # by rounding (about 1e-16 relative)
        return 1e-12 * max(1.0, opt)

    def test_bound_brackets_exact_optimum(self):
        rng = np.random.default_rng(16)
        outcomes = set()
        for trial in range(60):
            max_iters = (2, 8, 2000)[trial % 3]
            n = int(rng.integers(5, 25))
            g = random_graph(rng, n, float(rng.uniform(0.15, 0.6)))
            k_max = int(rng.integers(2, 5))
            size = min(n, k_max + int(rng.integers(0, 4)))
            ids = rng.choice(n, size=size, replace=False)
            labels = {int(i): c % k_max + 1 for c, i in enumerate(ids)}
            result = cluster(g, labels, max_iters)
            for k, diag in enumerate(result.diagnostics, start=1):
                opt = mincut_tv_oracle(g, indicator_targets(labels, k)).optimal_tv
                slack = self.slack(opt)
                assert diag.bound <= opt + slack
                assert opt <= diag.tv_final + slack
                assert diag.tv_final == total_variation(g, result.scores[k - 1])
                assert diag.converged == (diag.stop_reason == "level_set")
                if diag.converged:
                    # the integer bound meets the optimum, with no rounding
                    assert diag.tv_final == diag.bound == opt and diag.gap == 0
                outcomes.add((max_iters, diag.stop_reason))
        assert {(2, "budget"), (2, "level_set"), (8, "budget"), (8, "level_set"),
                (2000, "level_set")} <= outcomes

    @pytest.mark.parametrize("budget", [8, 40, 2000])
    def test_non_binary_seed_values(self, budget):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(6, 20))
            g = random_connected_graph(rng, n, float(rng.uniform(0.2, 0.6)))
            ids = np.sort(rng.choice(n, size=4, replace=False))
            two = [0.3, -1.7, 0.3, -1.7]
            values = np.array([two, rng.uniform(-2.0, 2.0, 4), [5.0, 5.0, 5.0, 5.0]])
            scores, diagnostics = solve_batch(g, ids, values, budget)
            for row, diag, v in zip(scores, diagnostics, values):
                assert v.min() <= row.min() and row.max() <= v.max()
                assert_array_equal(row[ids], v)
                assert diag.bound <= diag.tv_final + self.slack(diag.tv_final)
            binary = {int(i): float(v == 0.3) for i, v in zip(ids, two)}
            opt = 2.0 * mincut_tv_oracle(g, binary).optimal_tv
            assert diagnostics[0].bound <= opt + self.slack(opt)
            assert opt <= diagnostics[0].tv_final + self.slack(opt)
            if diagnostics[0].converged:
                assert abs(diagnostics[0].tv_final - opt) <= self.slack(opt)
            assert diagnostics[2].tv_final == 0.0 and diagnostics[2].iters == 0

    @pytest.mark.parametrize("budget", [8, 40, 2000])
    def test_gap_never_negative(self, budget):
        # certified rows with several labeled values used to read gaps of
        # about -4e-16, where the float sums of the bound and TV crossed
        rng = np.random.default_rng(2026)
        reasons = set()
        for _ in range(30):
            n = int(rng.integers(5, 25))
            g = random_connected_graph(rng, n, float(rng.uniform(0.2, 0.6)))
            ids = np.sort(rng.choice(n, size=int(rng.integers(2, 6)), replace=False))
            values = rng.uniform(-3.0, 3.0, (4, ids.size))
            _, diagnostics = solve_batch(g, ids, values, budget)
            for diag in diagnostics:
                assert diag.gap >= 0.0
                if diag.stop_reason == "level_set":
                    assert diag.gap == 0.0
                reasons.add(diag.stop_reason)
        assert "level_set" in reasons

    def test_reference_protocol_sweep_budget(self):
        # the first rep of the reference sweep (sizes 50,50, p_out 0.025,
        # p_in 0.025..0.5, S in {5, 10, 15}, master seed 1): every solve
        # certifies, and the sweep's iters column sums to at most 2,482, 3x
        # below the 7,448 of the gap stop alone (60,180 with the old burn-in
        # and stall rule); the level-set stop sums to 1,688
        total = 0
        for _, result in reference_first_rep():
            assert all(d.converged for d in result.diagnostics)
            total += max(d.iters for d in result.diagnostics)
        assert total <= 7448 // 3

    def test_reference_protocol_solves_exact(self):
        # each of the 120 indicator solves of the first rep stops on a level
        # set whose TV is exactly the max-flow optimum, and keeps its 0/1
        # targets on the seeds
        for instance, result in reference_first_rep():
            labels = instance.seeds.labels()
            seed_ids = sorted(labels)
            for k, diag in enumerate(result.diagnostics, start=1):
                target = indicator_targets(labels, k)
                opt = mincut_tv_oracle(instance.graph, target).optimal_tv
                assert diag.stop_reason == "level_set"
                assert diag.tv_final == opt
                assert_array_equal(result.scores[k - 1, seed_ids],
                                   [target[i] for i in seed_ids])

    def test_non_binary_solves_reach_threshold_optimum(self):
        # labeled values a_0 < ... < a_m: the optimum is the sum over j of
        # (a_j - a_{j-1}) times the min cut of the 0/1 target [value >= a_j];
        # the first graph is the one where the relative-gap stop took 984
        # sweeps and stopped 8e-6 above it
        rng = np.random.default_rng(22)
        cases = [(build_graph(12, [
            (0, 4), (0, 8), (0, 11), (1, 4), (1, 7), (1, 8), (2, 5), (2, 6),
            (2, 11), (3, 5), (3, 10), (3, 11), (4, 6), (4, 7), (4, 8), (5, 8),
            (5, 10), (6, 9), (7, 9), (7, 10), (7, 11), (9, 11), (10, 11),
        ]), {0: 0.3, 5: -1.7, 11: 1.0})]
        for _ in range(200):
            n = int(rng.integers(4, 81))
            g = random_graph(rng, n, float(rng.uniform(1.0, 6.0)) / n)
            ids = rng.choice(n, size=int(rng.integers(2, min(n, 9) + 1)), replace=False)
            # one decimal: some labels share a value
            values = np.round(rng.uniform(-3.0, 3.0, ids.size), 1)
            cases.append((g, {int(i): float(v) for i, v in zip(ids, values)}))
        for g, seeds in cases:
            x, diag = solve(g, seeds)
            levels = np.unique(list(seeds.values()))
            opt = sum(
                (a - below) * mincut_tv_oracle(
                    g, {i: float(v >= a) for i, v in seeds.items()}
                ).optimal_tv
                for below, a in zip(levels, levels[1:])
            )
            assert diag.stop_reason == "level_set" and diag.converged
            assert abs(diag.tv_final - opt) <= 1e-12 * max(1.0, opt)
            assert diag.tv_final == total_variation(g, x)
            assert all(x[i] == v for i, v in seeds.items())
            assert levels[0] <= x.min() and x.max() <= levels[-1]


class TestBatchedKernel:
    """cluster(), solve_batch() and solve() give bit for bit the unbatched
    reference."""

    BUDGETS = {"default_budget": 400, "max_iters_hit": 6}

    @pytest.mark.parametrize("name", BUDGETS)
    def test_cluster_matches_reference(self, name):
        budget = self.BUDGETS[name]
        rng = np.random.default_rng(11)
        distinct_stops = budget_hits = 0
        for trial in range(8):
            g = random_connected_graph(rng, 14, 0.3)
            k_max = 1 + trial % 4
            ids = rng.choice(14, size=k_max + 2, replace=False)
            if trial % 2:  # two isolated nodes, the last one labeled
                g = build_graph(16, g.edges)
                ids = np.append(ids, 15)
            labels = {int(i): c % k_max + 1 for c, i in enumerate(ids)}
            result = cluster(g, labels, budget)
            # the K indicator targets (one value when K = 1), a 0.3/-1.7
            # target, one of random values and a constant one, as one batch;
            # each row is bit for bit its own solve() and the reference
            targets = [indicator_targets(labels, k) for k in range(1, k_max + 1)]
            targets.append({i: 0.3 if v else -1.7 for i, v in targets[0].items()})
            targets.append({i: float(rng.integers(-2, 3)) / 4 for i in labels})
            targets.append({i: -0.7 for i in labels})
            seed_ids = sorted(labels)
            values = [[t[i] for i in seed_ids] for t in targets]
            scores, diagnostics = solve_batch(g, seed_ids, values, budget)
            assert_array_equal(scores[:k_max], result.scores)
            assert diagnostics[:k_max] == result.diagnostics
            for row, diag, target in zip(scores, diagnostics, targets):
                x, own = solve(g, target, budget)
                assert_array_equal(row, x)
                assert diag == own
                assert_same_as_reference(row, diag, reference_solve(g, target, budget))
            distinct_stops += len({d.iters for d in diagnostics}) > 1
            budget_hits += sum(d.stop_reason == "budget" for d in diagnostics)
        assert distinct_stops > 0
        if name == "max_iters_hit":
            assert budget_hits > 0

    def test_row_groups_match_reference(self):
        # about 29,000 edges: 0/1 targets go in groups of two, so the three
        # indicator targets and the four thresholds of a five-valued row
        # run as groups (1, 2), (3, 4a), (4b, 4c), (4d): the row's signal is
        # put together across three groups
        rng = np.random.default_rng(13)
        g = random_connected_graph(rng, 250, 0.93)
        assert solver._ROW_EDGES // g.num_edges == 2
        labels = {0: 1, 1: 2, 2: 3, 3: 1, 4: 3}
        targets = [indicator_targets(labels, k) for k in range(1, 4)]
        targets.append({0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 1.5})
        values = [[t[i] for i in sorted(labels)] for t in targets]
        scores, diagnostics = solve_batch(g, sorted(labels), values, 60)
        assert_array_equal(scores[:3], cluster(g, labels, 60).scores)
        for row, diag, target in zip(scores, diagnostics, targets):
            assert_same_as_reference(row, diag, reference_solve(g, target, 60))

    @pytest.mark.parametrize("name", BUDGETS)
    def test_solve_matches_reference(self, name):
        budget = self.BUDGETS[name]
        rng = np.random.default_rng(12)
        for _ in range(5):
            g = random_connected_graph(rng, 12, 0.35)
            seeds = {0: float(rng.normal()), 5: 1.0, 11: 0.0}
            x_bar, diag = solve(g, seeds, budget)
            assert_same_as_reference(x_bar, diag, reference_solve(g, seeds, budget))


def many_graph_runs():
    """(graph, seed_labels) runs on N = 100 nodes: two-cluster SBM draws of
    about 120 to 1300 edges with S = 1, 5 and 15, a K = 3 draw, and a draw
    whose node 99 lost its edges and is labeled."""
    runs = []
    for i, (p_in, s) in enumerate([(0.025, 5), (0.1, 1), (0.2, 15), (0.35, 5),
                                   (0.5, 15), (0.05, 15), (0.5, 1)]):
        params = SbmParams((50, 50), p_in, 0.025)
        instance = generate_instance(params, s, derive_instance_seed(5, i, 0, 0))
        runs.append((instance.graph, instance.seeds.labels()))
    instance = generate_instance(SbmParams((34, 33, 33), 0.3, 0.05), 3, 77)
    runs.append((instance.graph, instance.seeds.labels()))
    g, labels = runs[3]
    kept = [e for e in g.edges.tolist() if 99 not in e]
    runs.append((build_graph(100, kept), {**labels, 99: 2}))
    return runs


class TestManyGraphs:
    """The runs of many graphs with the same N, solved as one batch, give
    bit for bit their solo cluster(): bincount adds each bin in input order
    and every row is sorted and summed on its own."""

    @pytest.mark.parametrize("budget, row_edges", [
        (2000, solver._ROW_EDGES),  # every target in one group
        (2000, 2500),  # groups split runs, the K = 3 run too
        (20, 2500),  # some rows run out of budget
    ])
    def test_batch_matches_solo_cluster(self, monkeypatch, budget, row_edges):
        runs = many_graph_runs()
        edges = [g.num_edges for g, _ in runs]
        assert min(edges) < 150 and max(edges) > 1200
        assert runs[-1][0].degrees[99] == 0
        groups = []  # per group, the edges of each of its targets

        def recorded(targets, max_iters, signals):
            groups.append([g.num_edges for g, _, _ in targets])
            return solve_rows(targets, max_iters, signals)

        solve_rows = solver._solve_rows
        monkeypatch.setattr(solver, "_solve_rows", recorded)
        monkeypatch.setattr(solver, "_ROW_EDGES", row_edges)
        batched = _cluster_many(runs, budget)
        # the targets in order, each group as many as fit (one if none does)
        assert sum(groups, []) == [g.num_edges for g, labels in runs
                                   for _ in set(labels.values())]
        for group, after in zip(groups, groups[1:] + [[row_edges]]):
            assert sum(group) <= row_edges or len(group) == 1
            assert sum(group) + after[0] > row_edges
        assert len(groups) == (1 if row_edges > 10_000 else 8)
        monkeypatch.undo()
        reasons, iters = set(), set()
        for (g, labels), result in zip(runs, batched):
            solo = cluster(g, labels, budget)
            assert_array_equal(result.scores, solo.scores)
            assert_array_equal(result.assignment, solo.assignment)
            assert result.diagnostics == solo.diagnostics
            reasons |= {d.stop_reason for d in solo.diagnostics}
            iters |= {d.iters for d in solo.diagnostics}
        assert len(iters) > 2  # rows certify at different checks
        assert reasons == ({"level_set", "budget"} if budget < 100 else {"level_set"})

    def test_multi_valued_rows_match_solve_batch(self):
        # rows of several values, whose thresholds fill two groups, and of
        # one value; S differs by graph
        rng = np.random.default_rng(29)
        problems = []
        for g, labels in many_graph_runs():
            ids = sorted(labels)
            values = np.round(rng.uniform(-2.0, 2.0, (3, len(ids))), 1)
            values[1] = 0.5
            problems.append((g, ids, values))
        for (g, ids, values), (scores, diagnostics) in zip(
            problems, solver._solve_many(problems, 300)
        ):
            solo_scores, solo_diagnostics = solve_batch(g, ids, values, 300)
            assert_array_equal(scores, solo_scores)
            assert diagnostics == solo_diagnostics


class TestRounding:
    def test_threshold(self):
        x = np.array([0.0, 0.49, 0.5, 0.51, 1.0])
        assert_array_equal(round_to_indicator(x), [0, 0, 0, 1, 1])
