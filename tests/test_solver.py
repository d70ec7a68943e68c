import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import random_connected_graph, random_graph, round_to_indicator
from tvclust.analysis import mincut_tv_oracle
from tvclust.clustering import cluster, indicator_targets
from tvclust.graphs import build_graph, total_variation
from tvclust import solver
from tvclust.sbm import SbmParams, generate_instance
from tvclust.solver import (
    SeedValuesError,
    SolverConfig,
    SolverConfigError,
    _Sweeper,
    solve,
    solve_batch,
)
from tvclust.sweep import derive_instance_seed

TRIANGLES = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
PATH2 = build_graph(2, [(0, 1)])
CHECK_EVERY = 8  # the kernel's fixed check cadence


def reference_solve(g, seed_values, config):
    """One target at a time, every sweep from fresh arrays: the unbatched
    loop with the certified stop.  Returns (x, iters, converged, tv, bound,
    gap)."""
    idx = np.array(sorted(seed_values))
    vals = np.array([seed_values[i] for i in idx], dtype=float)
    lo, hi, n = vals.min(), vals.max(), g.num_nodes
    gamma = np.ones(n)
    gamma[g.degrees > 0] = 1.0 / g.degrees[g.degrees > 0]
    x_prev, x, y = np.zeros(n), np.zeros(n), np.zeros(g.num_edges)
    best, best_tv, best_bound = None, np.inf, -np.inf
    for r in range(1, config.max_iters + 1):
        x_tilde = 2.0 * x - x_prev
        y = np.clip(y + 0.5 * (x_tilde[g.heads] - x_tilde[g.tails]), -1.0, 1.0)
        divergence = np.bincount(g.heads, weights=y, minlength=n)
        divergence -= np.bincount(g.tails, weights=y, minlength=n)
        x_prev, x = x, x - gamma * divergence
        x[idx] = vals
        if r % CHECK_EVERY and r < config.max_iters:
            continue
        clipped = np.clip(x, lo, hi)
        tv = np.abs(clipped[g.heads] - clipped[g.tails]).sum()
        terms = np.minimum(lo * divergence, hi * divergence)
        terms[idx] = vals * divergence[idx]
        if tv < best_tv:
            best, best_tv = clipped, tv
        best_bound = max(best_bound, terms.sum())
        gap = (best_tv - best_bound) / max(1.0, best_tv)
        if gap <= config.tol:
            break
    return best, r, gap <= config.tol, best_tv, best_bound, gap


def assert_same_as_reference(x, diag, reference):
    ref_x, ref_iters, ref_converged, ref_tv, ref_bound, ref_gap = reference
    assert_array_equal(x, ref_x)
    assert diag.iters == ref_iters
    assert diag.converged == ref_converged
    assert diag.tv_final == ref_tv
    assert diag.bound == ref_bound
    assert diag.gap == ref_gap


def sweeps(g, seed_values, max_iters):
    """Output of a solve of max_iters <= CHECK_EVERY sweeps: the last
    iterate, clipped to the range of the seed values."""
    return solve(g, seed_values, SolverConfig(max_iters=max_iters, tol=0))[0]


def raw_iterate(g, seed_values, count):
    """The kernel's primal iterate after `count` sweeps from zero, before
    the clip to the seed-value range."""
    ids = np.array(sorted(seed_values))
    values = np.array([[seed_values[i] for i in ids]], dtype=float)
    sweeper = _Sweeper(g, ids, 1)
    x_prev, x = np.zeros((1, g.num_nodes)), np.zeros((1, g.num_nodes))
    y = np.zeros((1, g.num_edges))
    for _ in range(count):
        sweeper.sweep(x_prev, x, y, values)
        x_prev, x = x, x_prev
    return x[0]


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
        cfg = SolverConfig(max_iters=30)
        x_float, _ = solve_batch(bridge_graph, [0.0, 7.0], [[1.0, 0.0]], cfg)
        x_int, _ = solve_batch(bridge_graph, [0, 7], [[1.0, 0.0]], cfg)
        assert_array_equal(x_float, x_int)


class TestIterate:
    """The sweep, traced by hand on the 2-node path with node 0 clamped to 1,
    and checked against the reference for short budgets."""

    def test_first_sweep(self):
        assert_array_equal(raw_iterate(PATH2, {0: 1.0}, 1), [1.0, 0.0])
        # one seed value: the clip to [1, 1] gives the constant optimum,
        # and its certificate (TV 0, bound 0) holds after the one sweep
        x, diag = solve(PATH2, {0: 1.0}, SolverConfig(max_iters=1, tol=0))
        assert_array_equal(x, [1.0, 1.0])
        assert (diag.iters, diag.tv_final, diag.bound, diag.gap) == (1, 0, 0, 0)
        assert diag.converged

    def test_second_sweep(self):
        # extrapolation (2, 0); dual 0 + (1/2)*2 = 1, clipped stays 1;
        # node 1 descends 0 - 1*(-1) = 1; node 0 re-clamped to 1
        assert_array_equal(raw_iterate(PATH2, {0: 1.0}, 2), [1.0, 1.0])

    def test_dual_always_clipped(self):
        # the second sweep's jump (1/2) * 2 * value clips to sign(value),
        # so node 1 moves by gamma_1 = 1 whatever the seed value
        for value in (1.0, 5.0, 100.0, -3.0):
            x = raw_iterate(PATH2, {0: value}, 2)
            assert_array_equal(x, [value, np.sign(value)])

    def test_seeds_clamped_every_sweep(self, bridge_graph):
        # the reference clamps the labeled nodes after every sweep
        seeds = {0: 1.0, 7: 0.0}
        for max_iters in range(1, 21):
            cfg = SolverConfig(max_iters=max_iters, tol=0)
            reference = reference_solve(bridge_graph, seeds, cfg)
            assert_same_as_reference(*solve(bridge_graph, seeds, cfg), reference)

    def test_inputs_not_mutated(self, bridge_graph):
        # row 0 certifies at the first check and leaves the batch; the
        # caller's arrays stay
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

    @pytest.mark.parametrize(
        "field, value",
        [("max_iters", 10.5), ("max_iters", "10"), ("max_iters", None),
         ("tol", "1e-6"), ("tol", None)],
    )
    def test_non_number_settings_named(self, field, value):
        # each used to raise a bare TypeError
        with pytest.raises(SolverConfigError, match=field):
            SolverConfig(**{field: value})

    def test_integer_valued_max_iters_stored_as_int(self):
        # 10.0 used to be accepted and then fail in solve with a TypeError
        config = SolverConfig(max_iters=10.0)
        assert config == SolverConfig(max_iters=10) and type(config.max_iters) is int
        assert solve(PATH2, {0: 1.0}, config)[1].iters <= 10

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

    def test_clipped_last_iterate(self, bridge_graph):
        # here every check lowers the TV, so the output is the iterate of
        # the last check clipped to the seed range [-1.7, 0.3], and its
        # certificate is about that signal; it certifies at sweep 16
        seeds = {0: 0.3, 7: -1.7}
        for max_iters in (5, 7, 12, 2000):
            x, diag = solve(bridge_graph, seeds, SolverConfig(max_iters, tol=1e-6))
            assert diag.iters == min(max_iters, 16)
            last = raw_iterate(bridge_graph, seeds, diag.iters)
            assert_array_equal(x, np.clip(last, -1.7, 0.3))
            assert diag.tv_final == total_variation(bridge_graph, x)
            tv, bound = diag.tv_final, diag.bound
            assert diag.gap == (tv - bound) / max(1.0, tv)
            assert diag.converged == (diag.gap <= 1e-6) == (max_iters >= 16)

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
            config = SolverConfig(max_iters=(8, 24, 2000)[trial % 3])
            n = int(rng.integers(5, 25))
            g = random_graph(rng, n, float(rng.uniform(0.15, 0.6)))
            k_max = int(rng.integers(2, 5))
            size = min(n, k_max + int(rng.integers(0, 4)))
            ids = rng.choice(n, size=size, replace=False)
            labels = {int(i): c % k_max + 1 for c, i in enumerate(ids)}
            result = cluster(g, labels, config)
            for k, diag in enumerate(result.diagnostics, start=1):
                opt = mincut_tv_oracle(g, indicator_targets(labels, k)).optimal_tv
                slack = self.slack(opt)
                assert diag.bound <= opt + slack
                assert opt <= diag.tv_final + slack
                assert diag.tv_final == total_variation(g, result.scores[k - 1])
                assert diag.converged == (diag.gap <= config.tol)
                if diag.converged:
                    excess = diag.tv_final - opt
                    assert excess <= config.tol * max(1.0, diag.tv_final) + slack
                outcomes.add((config.max_iters, diag.converged))
        assert {(8, False), (24, False), (24, True), (2000, True)} <= outcomes

    @pytest.mark.parametrize("budget", [8, 40, 2000])
    def test_non_binary_seed_values(self, budget):
        rng = np.random.default_rng(17)
        config = SolverConfig(max_iters=budget)
        for _ in range(20):
            n = int(rng.integers(6, 20))
            g = random_connected_graph(rng, n, float(rng.uniform(0.2, 0.6)))
            ids = np.sort(rng.choice(n, size=4, replace=False))
            two = [0.3, -1.7, 0.3, -1.7]
            values = np.array([two, rng.uniform(-2.0, 2.0, 4), [5.0, 5.0, 5.0, 5.0]])
            scores, diagnostics = solve_batch(g, ids, values, config)
            for row, diag, v in zip(scores, diagnostics, values):
                assert v.min() <= row.min() and row.max() <= v.max()
                assert_array_equal(row[ids], v)
                assert diag.bound <= diag.tv_final + self.slack(diag.tv_final)
            binary = {int(i): float(v == 0.3) for i, v in zip(ids, two)}
            opt = 2.0 * mincut_tv_oracle(g, binary).optimal_tv
            assert diagnostics[0].bound <= opt + self.slack(opt)
            assert opt <= diagnostics[0].tv_final + self.slack(opt)
            if diagnostics[0].converged:
                excess = diagnostics[0].tv_final - opt
                tv = diagnostics[0].tv_final
                assert excess <= config.tol * max(1.0, tv) + self.slack(opt)
            assert diagnostics[2].tv_final == 0.0 and diagnostics[2].converged

    def test_reference_protocol_sweep_budget(self):
        # the first rep of the reference sweep (sizes 50,50, p_out 0.025,
        # p_in 0.025..0.5, S in {5, 10, 15}, master seed 1): every solve
        # certifies, and the sweep's iters column sums to at most 20,000
        # (60,180 with the old burn-in and stall rule)
        total = 0
        for grid_i in range(20):
            p_in = round(0.025 * (grid_i + 1), 12)
            for s_i, s in enumerate((5, 10, 15)):
                seed = derive_instance_seed(1, grid_i, s_i, 0)
                instance = generate_instance(SbmParams((50, 50), p_in, 0.025), s, seed)
                result = cluster(instance.graph, instance.seeds.labels())
                assert all(d.converged for d in result.diagnostics)
                total += max(d.iters for d in result.diagnostics)
        assert total <= 20_000


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
        distinct_stops = budget_hits = 0
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
            budget_hits += sum(
                d.iters == config.max_iters and not d.converged
                for d in result.diagnostics
            )
        assert distinct_stops > 0
        if name == "max_iters_hit":
            assert budget_hits > 0

    def test_row_groups_match_reference(self):
        # about 29,000 edges: rows go in groups of two, so three targets
        # run as a group of two and a group of one
        rng = np.random.default_rng(13)
        g = random_connected_graph(rng, 250, 0.93)
        assert solver._ROW_EDGES // g.num_edges == 2
        labels = {0: 1, 1: 2, 2: 3, 3: 1, 4: 3}
        config = SolverConfig(max_iters=60)
        result = cluster(g, labels, config)
        for k in range(1, 4):
            reference = reference_solve(g, indicator_targets(labels, k), config)
            assert_same_as_reference(
                result.scores[k - 1], result.diagnostics[k - 1], reference
            )

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
