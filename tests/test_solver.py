import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import random_connected_graph
from tvclust.graphs import build_graph, total_variation
from tvclust.solver import (
    SeedValuesError,
    SolverConfig,
    initialize,
    iterate,
    round_to_indicator,
    solve,
)

TRIANGLES = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]


class TestInitialize:
    def test_all_zero(self, bridge_graph):
        state = initialize(bridge_graph, {0: 1.0, 7: 0.0})
        assert_array_equal(state.x_cur, np.zeros(8))
        assert_array_equal(state.y, np.zeros(bridge_graph.num_edges))
        assert_array_equal(state.x_bar, np.zeros(8))
        assert state.r == 0

    def test_gamma_two_node_path(self):
        g = build_graph(2, [(0, 1)])
        state = initialize(g, {0: 1.0})
        assert_array_equal(state.gamma, [1.0, 1.0])

    def test_gamma_bridge_graph(self, bridge_graph):
        state = initialize(bridge_graph, {0: 1.0})
        expected = [1 / 2, 1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 2]
        assert_allclose(state.gamma, expected)

    def test_isolated_node_gamma_one(self):
        g = build_graph(3, [(0, 1)])
        state = initialize(g, {0: 1.0})
        assert state.gamma[2] == 1.0

    def test_empty_seed_set(self, bridge_graph):
        with pytest.raises(SeedValuesError):
            initialize(bridge_graph, {})

    def test_nonfinite_seed_value(self, bridge_graph):
        with pytest.raises(SeedValuesError):
            initialize(bridge_graph, {0: np.inf})


class TestIterate:
    # Hand-traced sweeps on the 2-node path with node 0 clamped to 1.
    def test_first_sweep(self):
        g = build_graph(2, [(0, 1)])
        seeds = {0: 1.0}
        state = iterate(initialize(g, seeds), g, seeds)
        assert_array_equal(state.y, [0.0])
        assert_array_equal(state.x_cur, [1.0, 0.0])
        assert_array_equal(state.x_bar, [1.0, 0.0])
        assert state.r == 1

    def test_second_sweep(self):
        g = build_graph(2, [(0, 1)])
        seeds = {0: 1.0}
        state = iterate(initialize(g, seeds), g, seeds)
        state = iterate(state, g, seeds)
        # extrapolation (2, 0); dual 0 + (1/2)*2 = 1, clipped stays 1;
        # node 1 descends 0 - 1*(-1) = 1; node 0 re-clamped to 1
        assert_array_equal(state.y, [1.0])
        assert_array_equal(state.x_cur, [1.0, 1.0])
        assert_array_equal(state.x_bar, [1.0, 0.5])
        assert state.r == 2

    def test_dual_always_clipped(self, bridge_graph):
        seeds = {0: 5.0, 7: -3.0}
        state = initialize(bridge_graph, seeds)
        for _ in range(30):
            state = iterate(state, bridge_graph, seeds)
            assert np.abs(state.y).max() <= 1.0

    def test_seeds_clamped_every_sweep(self, bridge_graph):
        seeds = {0: 1.0, 7: 0.0}
        state = initialize(bridge_graph, seeds)
        for _ in range(20):
            state = iterate(state, bridge_graph, seeds)
            assert state.x_cur[0] == 1.0
            assert state.x_cur[7] == 0.0
            assert state.x_bar[0] == 1.0
            assert state.x_bar[7] == 0.0

    def test_inputs_not_mutated(self, bridge_graph):
        seeds = {0: 1.0}
        state = initialize(bridge_graph, seeds)
        before = state.x_cur.copy()
        iterate(state, bridge_graph, seeds)
        assert_array_equal(state.x_cur, before)


class TestConfig:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-6])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError):
            SolverConfig(tol=tol)

    def test_bad_max_iters_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)


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
        _, diag = solve(bridge_graph, {0: 1.0, 7: 0.0}, SolverConfig(max_iters=137))
        assert diag.residual_sup == 0.0

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

    def test_averaging_identity_from_start(self, bridge_graph):
        # with burn_in=0 the output is the plain mean of all primal iterates
        seeds = {0: 1.0, 7: 0.0}
        x_bar, diag = solve(
            bridge_graph,
            seeds,
            SolverConfig(max_iters=50, tol=0, record_history=True, burn_in=0),
        )
        explicit = np.mean(diag.x_hat_history, axis=0)
        assert_allclose(x_bar, explicit, atol=1e-12)

    def test_averaging_identity_state_recursion(self, bridge_graph):
        # the recursive state average always equals the mean over all sweeps
        seeds = {0: 1.0, 7: 0.0}
        state = initialize(bridge_graph, seeds)
        iterates = []
        for _ in range(23):
            state = iterate(state, bridge_graph, seeds)
            iterates.append(state.x_cur)
        assert_allclose(state.x_bar, np.mean(iterates, axis=0), atol=1e-12)

    def test_averaging_identity_tail_window(self, bridge_graph):
        seeds = {0: 1.0, 7: 0.0}
        cfg = SolverConfig(max_iters=40, tol=0, record_history=True, burn_in=10)
        x_bar, diag = solve(bridge_graph, seeds, cfg)
        explicit = np.mean(diag.x_hat_history[10:], axis=0)
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


class TestRounding:
    def test_threshold(self):
        x = np.array([0.0, 0.49, 0.5, 0.51, 1.0])
        assert_array_equal(round_to_indicator(x), [0, 0, 0, 1, 1])
