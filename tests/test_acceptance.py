"""Acceptance gate: one test per release criterion, at pinned tolerances.

Each passing test prints a single verdict line (visible with `pytest -s`
or in failure logs).  Criteria that sample randomness use committed
reference seeds, so every figure asserted here is reproducible bit for
bit.

Known red: criterion 4b (cross-curve collapse within 0.1 at matched
seed-scaled ratios).  On the 10-rep reference sweep the worst difference,
0.141 (0.139 before the level-set stop), has a standard error of about 0.1:
at 10 reps the verdict is mostly sampling noise.  At 400 reps the worst
difference is 0.091 with exact min-cut solves and 0.112 with the PDHG
solver as it then was, which decoded averaged iterates (the old
tail-average decode; today's average of optimal level sets has not been
measured at 400 reps); the two differ by the argmax decode of nodes with
no unique optimal label, not by solver error.  The test asserts the
criterion as written and reports the measurement.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import (
    BRIDGE_EDGES,
    incidence_matrix,
    random_connected_graph,
    random_graph,
    round_to_indicator,
)
from tvclust.analysis import (
    algebraic_connectivity,
    mincut_tv_oracle,
    boundary_concentration_bound,
    spectral_concentration_bound,
    subset_cut_check,
    well_connected,
)
from tvclust.cli import main
from tvclust.clustering import accuracy, cluster
from tvclust.graphs import (
    build_graph,
    contiguous_partition,
    laplacian,
    total_variation,
)
from tvclust.sbm import SbmParams, generate_instance
from tvclust.solver import SolverConfig, solve
from tvclust.sweep import SweepConfig, aggregate_rows, run_sweep, write_sweep_csv

DATA = Path(__file__).parent / "data"

# Committed reference constants: all sweep-based criteria run these exact
# configurations, so their asserted numbers never drift.
REFERENCE_SWEEP_SEED = 1
CHANCE_FLOOR_SEED = 7
R_STAR = 70.0  # smallest grid ratio with mean accuracy >= 0.95 everywhere
# beyond it, fixed by the committed reference run (REFERENCE_SWEEP_SEED)


def verdict(number: str, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS ({detail})")


def brute_force_min_tv(g, seeds):
    """Exhaustive minimum TV over all binary completions (vectorized)."""
    free = np.array(
        [i for i in range(g.num_nodes) if i not in seeds], dtype=np.int64
    )
    count = 1 << free.size
    signals = np.zeros((count, g.num_nodes))
    for node, value in seeds.items():
        signals[:, node] = value
    ks = np.arange(count)
    for bit, node in enumerate(free):
        signals[:, node] = (ks >> bit) & 1
    tv = np.abs(signals[:, g.tails] - signals[:, g.heads]).sum(axis=1)
    return float(tv.min())


def test_criterion_1_oracle_equivalence():
    # >= 200 random connected instances, N <= 14, binary seeds: the
    # max-flow oracle must match exhaustive enumeration exactly.
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    trials = 0
    while trials < 200:
        n = int(rng.integers(4, 15))
        g = random_connected_graph(rng, n, float(rng.uniform(0.25, 0.6)))
        k = int(rng.integers(2, 5))
        nodes = rng.choice(n, size=min(k, n), replace=False)
        seeds = {int(i): float(rng.integers(0, 2)) for i in nodes}
        result = mincut_tv_oracle(g, seeds)
        assert result.optimal_tv == brute_force_min_tv(g, seeds)
        trials += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    verdict("1", "oracle equivalence", f"200 instances, {elapsed:.1f}s")


def test_criterion_2_solver_optimality():
    # >= 100 random instances, N <= 30, mixed p_in/p_out: the averaged
    # iterate's TV lands within 1e-3 of the exact optimum; the rounded
    # signal is exactly optimal whenever the minimum cut is unique.
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    unique_cases = 0
    for _ in range(100):
        n1 = int(rng.integers(3, 16))
        n2 = int(rng.integers(3, 16))
        p_in = float(rng.uniform(0.2, 0.9))
        p_out = float(rng.uniform(0.02, p_in))
        s = min(int(rng.integers(1, min(n1, n2) + 1)), 3)
        instance = generate_instance(
            SbmParams((n1, n2), p_in, p_out), s=s, rng_seed=int(rng.integers(2**63))
        )
        seeds = {
            i: 1.0 if c == 1 else 0.0 for i, c in instance.seeds.labels().items()
        }
        oracle = mincut_tv_oracle(instance.graph, seeds)
        x_bar, diag = solve(instance.graph, seeds, SolverConfig(max_iters=5000))
        gap = diag.tv_final - oracle.optimal_tv
        worst_gap = max(worst_gap, abs(gap))
        assert abs(gap) <= 1e-3
        if oracle.cut_unique:
            unique_cases += 1
            rounded_tv = total_variation(instance.graph, round_to_indicator(x_bar))
            assert rounded_tv == float(oracle.optimal_tv)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    verdict(
        "2", "solver optimality",
        f"100 instances, worst gap {worst_gap:.2e}, "
        f"{unique_cases} unique-cut cases, {elapsed:.1f}s",
    )


def test_criterion_3_bridge_graph_end_to_end():
    started = time.perf_counter()
    g = build_graph(8, BRIDGE_EDGES)
    truth = contiguous_partition([4, 4])
    result = cluster(g, {0: 1, 7: 2}, SolverConfig(max_iters=2000))
    assert accuracy(result, truth, seeds=[0, 7]) == 1.0
    indicator = round_to_indicator(result.scores[0])
    assert_array_equal(indicator, [1, 1, 1, 1, 0, 0, 0, 0])
    assert total_variation(g, indicator) == 1.0
    assert abs(total_variation(g, result.scores[0]) - 1.0) < 1e-3
    oracle = mincut_tv_oracle(g, {0: 1.0, 7: 0.0})
    assert oracle.optimal_tv == 1 and oracle.cut_unique
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    verdict("3", "bridge-graph end to end", f"accuracy 1.0, TV 1, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def reference_rows():
    # documented protocol: sizes (50,50), p_out 0.025, p_in 0.025..0.5 in
    # steps of 0.025, S in {5,10,15}, 10 reps, committed master seed
    grid = tuple(round(0.025 * k, 12) for k in range(1, 21))
    config = SweepConfig(
        cluster_sizes=(50, 50),
        p_out=0.025,
        p_in_grid=grid,
        s_values=(5, 10, 15),
        reps=10,
        rng_seed=REFERENCE_SWEEP_SEED,
    )
    started = time.perf_counter()
    rows = run_sweep(config)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    return config, rows


@pytest.fixture(scope="module")
def reference_sweep(reference_rows):
    config, rows = reference_rows
    by_s = {}
    for row in aggregate_rows(config, rows):
        by_s.setdefault(row.s, []).append((row.ratio, row.mean_accuracy))
    return {s: sorted(points) for s, points in by_s.items()}


def test_reference_sweep_rows_match_golden(reference_rows, tmp_path):
    # all 600 rows of the reference sweep, byte for byte (wall_ms 0)
    _, rows = reference_rows
    path = tmp_path / "reference_sweep.csv"
    write_sweep_csv(path, rows)
    assert path.read_bytes() == (DATA / "golden_reference_sweep.csv").read_bytes()


def isotonic_fit(values):
    """Least-squares non-decreasing fit by pool-adjacent-violators."""
    blocks = [[v, 1] for v in values]
    i = 0
    while i < len(blocks) - 1:
        if blocks[i][0] > blocks[i + 1][0] + 1e-15:
            total = blocks[i][0] * blocks[i][1] + blocks[i + 1][0] * blocks[i + 1][1]
            count = blocks[i][1] + blocks[i + 1][1]
            blocks[i] = [total / count, count]
            del blocks[i + 1]
            i = max(i - 1, 0)
        else:
            i += 1
    return [b[0] for b in blocks for _ in range(b[1])]


def test_criterion_4a_accuracy_monotone_in_ratio(reference_sweep):
    worst = 0.0
    for s, points in reference_sweep.items():
        accs = [a for _, a in points]
        fit = isotonic_fit(accs)
        residual = max(abs(f - a) for f, a in zip(fit, accs))
        worst = max(worst, residual)
        assert residual < 0.05, f"S={s}: isotonic residual {residual:.4f}"
    verdict("4a", "accuracy monotone in ratio", f"max isotonic residual {worst:.4f}")


def test_criterion_4b_curves_collapse(reference_sweep):
    # As specified: curves for different S agree within 0.1 wherever their
    # ratio grids intersect.  At these 10 reps it fails (0.141, standard
    # error about 0.1).  At 400 reps the S=5 and S=15 curves differ by 0.091
    # around ratio 45 with exact min-cut solves and by 0.112 with PDHG's
    # old tail-average decode, whose averaged scores decode the non-unique
    # nodes differently.
    diffs = []
    for s1, s2 in itertools.combinations(sorted(reference_sweep), 2):
        curve2 = {round(r, 6): a for r, a in reference_sweep[s2]}
        for ratio, acc in reference_sweep[s1]:
            other = curve2.get(round(ratio, 6))
            if other is not None:
                diffs.append((abs(acc - other), ratio, s1, s2))
    diffs.sort(reverse=True)
    print(f"criterion 4b: worst matched-ratio differences: "
          + ", ".join(f"|S{s1}-S{s2}|@{r:g}={d:.3f}" for d, r, s1, s2 in diffs[:3]))
    worst, ratio, s1, s2 = diffs[0]
    assert worst < 0.1, (
        f"curves S={s1} and S={s2} differ by {worst:.4f} at matched ratio "
        f"{ratio:g} (threshold 0.1); at 10 reps such a difference has a "
        f"standard error of about 0.1, and at 400 reps exact min-cut solves "
        f"give 0.091 and PDHG with the old tail-average decode 0.112, apart "
        f"by the decode of nodes with no unique optimal label"
    )
    verdict("4b", "curves collapse", f"max matched-ratio diff {worst:.4f}")


def test_criterion_4c_plateau_beyond_committed_ratio(reference_sweep):
    floor = 1.0
    for s, points in reference_sweep.items():
        for ratio, acc in points:
            if ratio >= R_STAR:
                floor = min(floor, acc)
                assert acc >= 0.95, f"S={s} ratio={ratio:g}: accuracy {acc:.4f}"
    verdict(
        "4c", "plateau beyond committed ratio",
        f"min accuracy {floor:.4f} for ratio >= {R_STAR:g}",
    )


def test_criterion_5_chance_floor():
    # p_in == p_out: no cluster signal; balanced two-way assignment must
    # score at chance level.
    started = time.perf_counter()
    config = SweepConfig(
        cluster_sizes=(50, 50),
        p_out=0.1,
        p_in_grid=(0.1,),
        s_values=(5,),
        reps=50,
        rng_seed=CHANCE_FLOOR_SEED,
    )
    rows = run_sweep(config)
    mean_acc = float(np.mean([r.accuracy for r in rows]))
    assert 0.40 <= mean_acc <= 0.60
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    verdict("5", "chance floor", f"mean accuracy {mean_acc:.4f} over 50 reps")


def test_criterion_6_structural_identities():
    rng = np.random.default_rng(606)
    for _ in range(100):
        n = int(rng.integers(2, 21))
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.7)))
        d = incidence_matrix(g)
        assert_array_equal(d.T @ d, laplacian(g))
    k50 = build_graph(50, [(i, j) for i in range(50) for j in range(i + 1, 50)])
    lam = algebraic_connectivity(laplacian(k50))
    assert abs(lam - 50.0) <= 1e-8
    disconnected = build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert algebraic_connectivity(laplacian(disconnected)) == 0.0
    verdict("6", "structural identities", "100 graphs, complete-graph spectrum")


def test_criterion_7_bridge_graph_certificates():
    # together with criterion 3 this instantiates the exact-recovery
    # guarantee: certified seeds imply the clustering is exact
    g = build_graph(8, BRIDGE_EDGES)
    p = contiguous_partition([4, 4])
    for k, labeled in ((1, 0), (2, 7)):
        res = subset_cut_check(g, p, k, labeled)
        assert res.per_subset_holds and res.uniform_holds
        assert well_connected(g, p, k, labeled)
    verdict("7", "bridge-graph certificates", "both clusters, both checks")


def test_criterion_8_bound_formulas():
    assert abs(
        boundary_concentration_bound(50, 100, 0.01, 0.1) - np.exp(-2.5)
    ) <= 1e-12
    assert abs(spectral_concentration_bound(50, 1.0) - 49 * 0.9**25) <= 1e-12
    verdict("8", "bound formulas", "both closed forms to 1e-12")


def test_criterion_9_sweep_determinism(tmp_path):
    argv_base = [
        "sweep", "--sizes", "20,20", "--p-out", "0.05",
        "--p-in-grid", "0.2,0.4", "--num-seeds", "2,4", "--reps", "3",
        "--rng-seed", "31415", "--max-iters", "500",
    ]
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"sweep_{run}.csv"
        agg = tmp_path / f"agg_{run}.csv"
        code = main(argv_base + ["--out", str(out), "--aggregate-out", str(agg)])
        assert code == 0
        outputs.append(out.read_bytes() + b"|" + agg.read_bytes())
    assert outputs[0] == outputs[1]
    verdict("9", "sweep determinism", "byte-identical CSVs across two runs")
