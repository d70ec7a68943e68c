"""Show that no benchmark check is vacuous.

    PYTHONPATH=src python3 perfbench/selftest.py

Every check first passes on a genuine program output made on a small
input, then must fail on a corrupted copy of it (a flipped label, a TV off
by one, a wrong lambda2, ...).  The max-flow re-deciders of the
certificates are also compared with the program's enumerations on random
small draws, where both verdicts occur.  Exits 1 if any check passes a
corruption or fails a genuine output.
"""

from __future__ import annotations

import copy
import csv
import sys
import tempfile
from pathlib import Path

import numpy as np

from tvclust import analysis, clustering, sbm, sweep
from tvclust.sbm import SbmParams

import checks
from workloads import (
    CertifySmall,
    binary_targets,
    block_truth,
    certificates,
    check_known_certificates,
)

FAILURES: list[str] = []
COUNTS = {"genuine": 0, "corrupted": 0}


def passes(label: str, fn, *args) -> None:
    try:
        fn(*args)
        COUNTS["genuine"] += 1
    except checks.CheckFailed as exc:
        FAILURES.append(f"{label}: genuine output rejected ({exc})")


def fails(label: str, fn, *args) -> None:
    try:
        fn(*args)
    except checks.CheckFailed:
        COUNTS["corrupted"] += 1
        return
    FAILURES.append(f"{label}: corruption not detected")


def sweep_checks() -> None:
    grid, s_values = (0.025, 0.5), (5, 15)
    config = sweep.SweepConfig((50, 50), 0.025, grid, s_values, 1, 1)
    rows = [
        (w.s, w.p_in, w.p_out, w.ratio, w.rep, w.instance_seed, w.accuracy, w.iters, 1)
        for w in sweep.run_sweep(config)
    ]
    args = (grid, s_values, 1, 1)
    passes("sweep rows", checks.check_sweep_rows, rows, *args)
    swapped = [rows[1], rows[0], *rows[2:]]
    fails("sweep rows swapped", checks.check_sweep_rows, swapped, *args)

    def corrupted(row, column, value):
        bad = [list(r) for r in rows]
        bad[row][column] = value
        return [tuple(r) for r in bad]

    fails("sweep instance_seed off by one", checks.check_sweep_rows,
          corrupted(0, 5, rows[0][5] + 1), *args)
    fails("sweep plateau accuracy lowered", checks.check_sweep_rows,
          corrupted(-1, 6, 0.5), *args)
    floor = corrupted(0, 6, 1.0)
    floor[1] = floor[1][:6] + (1.0,) + floor[1][7:]
    fails("sweep chance floor raised", checks.check_sweep_rows, floor, *args)


def clustering_checks() -> None:
    sizes = (30, 30, 30)
    instance = sbm.generate_instance(SbmParams(sizes, 0.5, 0.002), 5, 11)
    result = clustering.cluster(instance.graph, instance.seeds.labels())
    truth = block_truth(sizes)
    edges = instance.graph.edges
    groups = instance.seeds.per_cluster
    genuine = {
        "num_nodes": truth.size, "edges": edges, "truth": truth, "seed_groups": groups,
        "assignment": np.array(result.assignment), "scores": np.array(result.scores),
        "tv_final": [d.tv_final for d in result.diagnostics],
    }

    def run(out):
        checks.check_clustering(**out)

    passes("clustering", run, genuine)
    seeds = {i for g in groups for i in g}
    free = next(i for i in range(truth.size) if i not in seeds)

    bad = copy.deepcopy(genuine)
    bad["assignment"][free] = bad["assignment"][free] % 3 + 1
    fails("clustering flipped label", run, bad)

    bad = copy.deepcopy(genuine)
    seed = groups[0][0]
    bad["assignment"][seed] = 2
    bad["scores"][:, seed] = (0.0, 1.0, 0.0)
    fails("clustering flipped seed label", run, bad)

    bad = copy.deepcopy(genuine)
    bad["tv_final"][1] -= 1.0
    fails("clustering TV off by one", run, bad)

    bad = copy.deepcopy(genuine)
    bad["scores"][0] = 0.0
    bad["tv_final"][0] = 0.0
    fails("clustering TV below the min cut", run, bad)

    # a self-consistent but wrong clustering: one-hot scores of a bad labeling
    bad = copy.deepcopy(genuine)
    wrong = np.roll(truth, 10)
    wrong[list(seeds)] = truth[list(seeds)]
    bad["assignment"] = wrong
    bad["scores"] = (np.arange(1, 4)[:, None] == wrong[None, :]).astype(float)
    bad["tv_final"] = [checks.numpy_tv(edges, row) for row in bad["scores"]]
    fails("clustering low accuracy", run, bad)

    scratch = Path(__file__).resolve().parent / "out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        where = Path(tmp)
        sbm.write_instance(instance, where)
        back = sbm.read_instance(where)
        passes("round trip", checks.check_same_edges, edges, back.graph.edges)
        fails("round trip lost edge", checks.check_same_edges, edges, back.graph.edges[1:])
        clustering.write_result_csv(where / "r.csv", result, back.truth, back.seeds)
        with open(where / "r.csv", newline="") as fh:
            table = list(csv.reader(fh))
    args = (truth, genuine["assignment"], groups)
    passes("result CSV", checks.check_result_csv, table, *args)
    bad = [list(row) for row in table]
    bad[1 + free][2] = str(int(bad[1 + free][2]) % 3 + 1)
    fails("result CSV flipped label", checks.check_result_csv, bad, *args)


def oracle_checks() -> None:
    instance = sbm.generate_instance(SbmParams((40, 40), 0.3, 0.02), 4, 5)
    g = instance.graph
    seed_values = binary_targets(instance.seeds.per_cluster, 1)
    ones = [i for i, v in seed_values.items() if v == 1.0]
    zeros = [i for i, v in seed_values.items() if v == 0.0]
    res = analysis.mincut_tv_oracle(g, seed_values)
    signal = np.array(res.signal)
    args = (g.num_nodes, g.edges, ones, zeros)
    passes("oracle", checks.check_oracle, *args, res.optimal_tv, signal)
    fails("oracle TV off by one", checks.check_oracle, *args, res.optimal_tv + 1, signal)
    half = signal.copy()
    free = next(i for i in range(g.num_nodes) if i not in seed_values)
    half[free] = 0.5
    fails("oracle non-binary signal", checks.check_oracle, *args, res.optimal_tv, half)
    flipped = signal.copy()
    flipped[ones[0]] = 0.0
    fails("oracle seed violated", checks.check_oracle, *args, res.optimal_tv, flipped)
    moved = signal.copy()
    moved[free] = 1.0 - moved[free]
    if checks.numpy_tv(g.edges, moved) != res.optimal_tv:
        fails("oracle non-optimal signal", checks.check_oracle, *args, res.optimal_tv, moved)


def certificate_checks() -> None:
    instance = sbm.generate_instance(SbmParams((8, 8), 0.9, 0.05), 1, 3)
    expected = certificates((8, 8), instance.graph.edges, instance.seeds.per_cluster)
    report = analysis.analyze_instance(instance)
    got = [CertifySmall.report_verdicts(row) for row in report.clusters]
    for k in range(2):
        passes("certificates", checks.check_certificates, expected[k], got[k], "genuine")
    corruptions = {
        "wrong lambda2": ("lambda2", got[0]["lambda2"] + 1e-3),
        "flipped subset-cut verdict": ("subset_cut_holds", not got[0]["subset_cut_holds"]),
        "flipped uniform-cut verdict": (
            "uniform_cut_by_seed", tuple(not f for f in got[0]["uniform_cut_by_seed"])
        ),
        "flipped well-connected verdict": (
            "wellconnected_by_seed", tuple(not f for f in got[0]["wellconnected_by_seed"])
        ),
        "boundary count off by one": (
            "boundary_node_count", got[0]["boundary_node_count"] + 1
        ),
    }
    for label, (key, value) in corruptions.items():
        bad = dict(got[0], **{key: value})
        fails(f"certificates {label}", checks.check_certificates, expected[0], bad, "bad")
    passes("known certificates", check_known_certificates)

    # the re-deciders against the program's enumerations, both verdicts
    rng = np.random.default_rng(23)
    seen = {True: 0, False: 0}
    for _ in range(40):
        sizes = (int(rng.integers(3, 9)), int(rng.integers(3, 9)))
        g, p = sbm.generate(SbmParams(sizes, 0.8, 0.1), int(rng.integers(2**63)))
        groups = tuple((int(p.nodes_in(k)[0]),) for k in (1, 2))
        mine = certificates(sizes, g.edges, groups)
        for k in (1, 2):
            labeled = groups[k - 1][0]
            sub = analysis.subset_cut_check(g, p, k, labeled)
            wc = analysis.well_connected(g, p, k, labeled)
            theirs = (sub.per_subset_holds, sub.uniform_holds, wc)
            ours = (mine[k - 1]["subset_cut_holds"], mine[k - 1]["uniform_cut_by_seed"][0],
                    mine[k - 1]["wellconnected_by_seed"][0])
            if theirs != ours:
                FAILURES.append(f"re-decided certificates {ours} != program {theirs}")
            seen[wc] += 1
    if not (seen[True] and seen[False]):
        FAILURES.append(f"random draws gave only one well-connected verdict: {seen}")


def main() -> int:
    for part in (sweep_checks, clustering_checks, oracle_checks, certificate_checks):
        part()
    for line in FAILURES:
        print(f"FAIL {line}")
    print(f"selftest: {COUNTS['genuine']} genuine outputs accepted, "
          f"{COUNTS['corrupted']} corruptions rejected, {len(FAILURES)} problems")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
