import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import random_connected_graph
from tvclust.clustering import cluster, indicator_targets
from tvclust.graphs import build_graph, total_variation
from tvclust.solver import (
    SeedValuesError,
    SolverConfig,
    round_to_indicator,
    solve,
    solve_batch,
)

TRIANGLES = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
PATH2 = build_graph(2, [(0, 1)])


def reference_solve(g, seed_values, config):
    """One target at a time, every sweep from fresh arrays: the unbatched loop."""
    idx = np.array(sorted(seed_values))
    vals = np.array([seed_values[i] for i in idx], dtype=float)
    n, burn_in = g.num_nodes, config.max_iters // 2
    gamma = np.ones(n)
    gamma[g.degrees > 0] = 1.0 / g.degrees[g.degrees > 0]
    x_prev, x, y = np.zeros(n), np.zeros(n), np.zeros(g.num_edges)
    tail_sum, out_bar, history, converged = np.zeros(n), np.zeros(n), [], False
    for r in range(1, config.max_iters + 1):
        x_tilde = 2.0 * x - x_prev
        y = np.clip(y + 0.5 * (x_tilde[g.heads] - x_tilde[g.tails]), -1.0, 1.0)
        divergence = np.bincount(g.heads, weights=y, minlength=n)
        divergence -= np.bincount(g.tails, weights=y, minlength=n)
        x_prev, x = x, x - gamma * divergence
        x[idx] = vals
        history.append(x.copy())
        if r <= burn_in:
            continue
        tail_sum += x
        prev_bar, out_bar = out_bar, tail_sum / (r - burn_in)
        if r - burn_in >= 2 and np.abs(out_bar - prev_bar).max() < config.tol:
            converged = True
            break
    out_bar[idx] = vals
    return out_bar, r, converged, total_variation(g, out_bar), history


def assert_same_as_reference(x_bar, diag, reference):
    ref_x, ref_iters, ref_converged, ref_tv, _ = reference
    assert_array_equal(x_bar, ref_x)
    assert diag.iters == ref_iters
    assert diag.converged == ref_converged
    assert diag.tv_final == ref_tv


def sweeps(g, seed_values, max_iters):
    """Output of a solve of max_iters sweeps; for max_iters <= 2 the burn-in
    max_iters // 2 leaves only the last sweep's iterate in the average."""
    return solve(g, seed_values, SolverConfig(max_iters=max_iters, tol=0))[0]


def second_sweep_steps(g):
    """The step size gamma_j of every non-isolated node j, read off a
    two-sweep solve seeded at 1 on one neighbour i of j.

    Sweep 1 sets x_i = 1; sweep 2 extrapolates x_i to 2, the dual of edge
    {i, j} clips to +-1, and node j, whose other duals stay 0, moves to
    exactly gamma_j.
    """
    steps = np.full(g.num_nodes, np.nan)
    for i, j in g.edges.tolist():
        steps[j] = sweeps(g, {i: 1.0}, 2)[j]
        steps[i] = sweeps(g, {j: 1.0}, 2)[i]
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
        cfg = SolverConfig(max_iters=30)
        x_float, _ = solve_batch(bridge_graph, [0.0, 7.0], [[1.0, 0.0]], cfg)
        x_int, _ = solve_batch(bridge_graph, [0, 7], [[1.0, 0.0]], cfg)
        assert_array_equal(x_float, x_int)


class TestIterate:
    """The sweep, traced by hand on the 2-node path with node 0 clamped to 1,
    and checked against the reference for short budgets."""

    def test_first_sweep(self):
        x_bar, diag = solve(PATH2, {0: 1.0}, SolverConfig(max_iters=1, tol=0))
        assert_array_equal(x_bar, [1.0, 0.0])
        assert diag.iters == 1 and not diag.converged

    def test_second_sweep(self):
        # extrapolation (2, 0); dual 0 + (1/2)*2 = 1, clipped stays 1;
        # node 1 descends 0 - 1*(-1) = 1; node 0 re-clamped to 1
        assert_array_equal(sweeps(PATH2, {0: 1.0}, 2), [1.0, 1.0])

    def test_dual_always_clipped(self):
        # the second sweep's jump (1/2) * 2 * value clips to sign(value),
        # so node 1 moves by gamma_1 = 1 whatever the seed value
        for value in (1.0, 5.0, 100.0, -3.0):
            assert_array_equal(sweeps(PATH2, {0: value}, 2), [value, np.sign(value)])

    def test_seeds_clamped_every_sweep(self, bridge_graph):
        # the reference clamps the labeled nodes after every sweep
        seeds = {0: 1.0, 7: 0.0}
        for max_iters in range(1, 21):
            cfg = SolverConfig(max_iters=max_iters, tol=0)
            reference = reference_solve(bridge_graph, seeds, cfg)
            assert_same_as_reference(*solve(bridge_graph, seeds, cfg), reference)

    def test_inputs_not_mutated(self, bridge_graph):
        # row 0 stalls at once and leaves the batch; the caller's arrays stay
        ids, values = np.array([0, 7]), np.array([[0.0, 0.0], [1.0, 0.0]])
        _, diagnostics = solve_batch(bridge_graph, ids, values, SolverConfig(100))
        assert diagnostics[0].iters < diagnostics[1].iters
        assert_array_equal(ids, [0, 7])
        assert_array_equal(values, [[0.0, 0.0], [1.0, 0.0]])


class TestConfig:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-6])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError):
            SolverConfig(tol=tol)

    def test_bad_max_iters_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)

    def test_two_fields(self):
        fields = [f.name for f in dataclasses.fields(SolverConfig)]
        assert fields == ["max_iters", "tol"]


class TestSolve:
    def test_two_disjoint_triangles(self):
        g = build_graph(6, TRIANGLES)
        x_bar, diag = solve(g, {0: 1.0, 3: 0.0}, SolverConfig(max_iters=3000))
        assert_allclose(x_bar[:3], np.ones(3), atol=1e-3)
        assert_allclose(x_bar[3:], np.zeros(3), atol=1e-3)
        assert diag.tv_final < 1e-3

    def test_bridge_graph_block_indicator(self, bridge_graph):
        x_bar, diag = solve(bridge_graph, {0: 1.0, 7: 0.0}, SolverConfig(5000, 1e-9))
        indicator = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=float)
        assert_allclose(x_bar, indicator, atol=0.01)
        assert abs(diag.tv_final - 1.0) < 1e-3
        assert_array_equal(round_to_indicator(x_bar), indicator)

    def test_single_seed_goes_constant(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        x_bar, diag = solve(g, {0: 1.0}, SolverConfig(max_iters=4000, tol=1e-10))
        assert_allclose(x_bar, np.ones(4), atol=0.01)
        assert diag.tv_final < 0.05

    def test_constraint_residual_zero(self, bridge_graph):
        x_bar, _ = solve(bridge_graph, {0: 0.3, 7: -1.7}, SolverConfig(max_iters=137))
        assert x_bar[0] == 0.3 and x_bar[7] == -1.7

    def test_max_iters_respected(self, bridge_graph):
        _, diag = solve(bridge_graph, {0: 1.0, 7: 0.0}, SolverConfig(max_iters=7, tol=0))
        assert diag.iters == 7
        assert not diag.converged

    def test_converged_flag(self):
        g = build_graph(6, TRIANGLES)
        _, diag = solve(g, {0: 1.0, 3: 0.0}, SolverConfig(max_iters=5000, tol=1e-8))
        assert diag.converged
        assert diag.iters < 5000

    def test_zero_targets_stall_immediately(self):
        g = build_graph(6, TRIANGLES)
        x_bar, diag = solve(g, {0: 0.0, 3: 0.0}, SolverConfig(max_iters=100))
        assert_array_equal(x_bar, np.zeros(6))
        assert diag.converged

    def test_averaging_identity_tail_window(self, bridge_graph):
        # the output is the mean of the primal iterates of sweeps
        # max_iters//2 + 1 .. max_iters, with the seed entries reset
        seeds = {0: 1.0, 7: 0.0}
        for max_iters in (40, 41):
            cfg = SolverConfig(max_iters=max_iters, tol=0)
            x_bar, _ = solve(bridge_graph, seeds, cfg)
            history = reference_solve(bridge_graph, seeds, cfg)[-1]
            explicit = np.mean(history[max_iters // 2 :], axis=0)
            explicit[[0, 7]] = [1.0, 0.0]
            assert_allclose(x_bar, explicit, atol=1e-12)

    def test_scale_equivariance_of_constraints(self, bridge_graph):
        cfg = SolverConfig(max_iters=2000)
        x1, _ = solve(bridge_graph, {0: 1.0, 7: 0.0}, cfg)
        x2, _ = solve(bridge_graph, {0: 2.0, 7: 0.0}, cfg)
        assert x2[0] == 2.0 and x2[7] == 0.0
        # symmetric decode unchanged: threshold at half the seed scale
        assert_array_equal(x2 > 1.0, x1 > 0.5)

    def test_tv_close_to_exact_minimum_small_random(self):
        # averaged iterate approaches the constrained TV minimum
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_connected_graph(rng, 10, 0.35)
            x_bar, diag = solve(g, {0: 1.0, 9: 0.0}, SolverConfig(5000, 1e-10))
            rounded_tv = total_variation(g, round_to_indicator(x_bar))
            assert diag.tv_final <= rounded_tv + 1e-3


class TestBatchedKernel:
    """cluster() and solve() give bit for bit the unbatched reference."""

    CONFIGS = {
        "default_budget": SolverConfig(max_iters=400),
        "max_iters_hit": SolverConfig(max_iters=60, tol=0),
        "tol_1e-5": SolverConfig(max_iters=300, tol=1e-5),
        "tol_1e-4": SolverConfig(max_iters=300, tol=1e-4),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_cluster_matches_reference(self, name):
        config = self.CONFIGS[name]
        rng = np.random.default_rng(11)
        distinct_stops = 0
        for trial in range(8):
            g = random_connected_graph(rng, 14, 0.3)
            k_max = 1 + trial % 4
            ids = rng.choice(14, size=k_max + 2, replace=False)
            if trial % 2:  # two isolated nodes, the last one labeled
                g = build_graph(16, g.edges)
                ids = np.append(ids, 15)
            labels = {int(i): c % k_max + 1 for c, i in enumerate(ids)}
            result = cluster(g, labels, config)
            for k in range(1, k_max + 1):
                reference = reference_solve(g, indicator_targets(labels, k), config)
                assert_same_as_reference(
                    result.scores[k - 1], result.diagnostics[k - 1], reference
                )
            distinct_stops += len({d.iters for d in result.diagnostics}) > 1
        if name == "max_iters_hit":
            assert distinct_stops == 0
        else:
            assert distinct_stops > 0

    @pytest.mark.parametrize("name", CONFIGS)
    def test_solve_matches_reference(self, name):
        config = self.CONFIGS[name]
        rng = np.random.default_rng(12)
        for _ in range(5):
            g = random_connected_graph(rng, 12, 0.35)
            seeds = {0: float(rng.normal()), 5: 1.0, 11: 0.0}
            x_bar, diag = solve(g, seeds, config)
            assert_same_as_reference(x_bar, diag, reference_solve(g, seeds, config))


class TestRounding:
    def test_threshold(self):
        x = np.array([0.0, 0.49, 0.5, 0.51, 1.0])
        assert_array_equal(round_to_indicator(x), [0, 0, 0, 1, 1])
