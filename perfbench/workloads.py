"""One benchmark workload in its own process: set-up, timed rounds, checks.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  A run
repeats whole rounds of the workload's fixed operations until --seconds
have passed (at least one round), then checks every output against
computations made apart from the program, and prints one JSON line.
With --setup-only it stops where the first timed operation would start.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tvclust import analysis, clustering, sbm, sweep
from tvclust.graphs import build_graph, contiguous_partition
from tvclust.sbm import SbmParams

import checks
from tracing import PER_LAYER, Tracer


def derived_seed(seed: int, *key: int) -> int:
    """A 64-bit input seed for (benchmark seed, workload key...)."""
    seq = np.random.SeedSequence(seed, spawn_key=key)
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def block_truth(sizes) -> np.ndarray:
    return np.repeat(np.arange(1, len(sizes) + 1), sizes)


def binary_targets(seed_groups, k: int) -> dict[int, float]:
    return {i: 1.0 if j == k else 0.0 for j, g in enumerate(seed_groups, 1) for i in g}


def split_seeds(seed_values: dict):
    ones = [i for i, v in seed_values.items() if v == 1.0]
    zeros = [i for i, v in seed_values.items() if v == 0.0]
    return ones, zeros


class Workload:
    """Set-up, one round of timed operations, and the checks of the outputs."""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def setup(self) -> None:
        pass

    def run_round(self, r: int, tracer: Tracer | None) -> list[float]:
        """Run the timed operations of round r; returns their durations in s."""
        raise NotImplementedError

    def ops_per_round(self) -> int:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    @staticmethod
    def op_p50_ms(op_times: list[float]) -> float:
        return 1000.0 * statistics.median(op_times)


def timed(tracer, fn, *args):
    """Run one operation, in an "op" span when traced; returns (result, s)."""
    start = time.perf_counter()
    if tracer is None:
        result = fn(*args)
    else:
        with tracer.span("op"):
            result = fn(*args)
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# sweep_ref: the first rep of the reference protocol behind criteria 4a-4c
# ---------------------------------------------------------------------------

class SweepRef(Workload):
    """sizes 50,50, p_out 0.025, p_in 0.025..0.5 step 0.025, S in {5,10,15}.

    The protocol fixes master seed 1, so the inputs are the same for every
    benchmark seed.  One op is one sweep run, timed by its row's wall_ms.
    """

    MASTER_SEED = 1
    GRID = tuple(round(0.025 * k, 12) for k in range(1, 21))
    S_VALUES = (5, 10, 15)
    REPS = 1

    def setup(self):
        self.config = sweep.SweepConfig(
            cluster_sizes=(50, 50), p_out=0.025, p_in_grid=self.GRID,
            s_values=self.S_VALUES, reps=self.REPS, rng_seed=self.MASTER_SEED,
        )
        self.rounds = []

    def run_round(self, r, tracer):
        rows, _ = timed(tracer, sweep.run_sweep, self.config, 1, True)
        self.rounds.append([
            (w.s, w.p_in, w.p_out, w.ratio, w.rep, w.instance_seed, w.accuracy,
             w.iters, w.wall_ms)
            for w in rows
        ])
        return [w.wall_ms / 1000.0 for w in rows]

    def ops_per_round(self):
        return len(self.GRID) * len(self.S_VALUES) * self.REPS

    @staticmethod
    def op_p50_ms(op_times):
        """Median of whole-millisecond times, interpolated within its bin.

        wall_ms is rounded to the millisecond; the grouped-data median
        L + (n/2 - F) / f places the median inside the 1 ms bin [m - 0.5,
        m + 0.5) instead of returning the bin's integer label.
        """
        ms = np.sort(np.rint(np.asarray(op_times) * 1000.0))
        half = ms.size / 2.0
        m = ms[int(np.ceil(half)) - 1]
        below = int((ms < m).sum())
        at = int((ms == m).sum())
        return float(m - 0.5 + (half - below) / at)

    def check(self):
        first = self.rounds[0]
        checks.check_sweep_rows(
            first, self.GRID, self.S_VALUES, self.REPS, self.MASTER_SEED
        )
        for r, rows in enumerate(self.rounds[1:], start=1):
            checks.require(
                [row[:-1] for row in rows] == [row[:-1] for row in first],
                f"round {r} rows differ from round 0 (apart from wall_ms)",
            )


# ---------------------------------------------------------------------------
# cluster_large: the documented CLI chain on N=8000, K=4
# ---------------------------------------------------------------------------

class ClusterLarge(Workload):
    """generate -> write -> read -> cluster -> result CSV, one instance per op.

    S p_in / p_out = 50 * 0.01 / 1e-5 = 50000, far above N - n_k = 6000,
    so exact recovery is expected and accuracy is ~1, not chance.
    """

    SIZES = (2000, 2000, 2000, 2000)
    P_IN, P_OUT, S = 0.01, 1e-5, 50
    KEY = 2

    def setup(self):
        self.params = SbmParams(self.SIZES, self.P_IN, self.P_OUT)
        self.outputs = []

    def _op(self, r):
        instance = sbm.generate_instance(
            self.params, self.S, derived_seed(self.seed, self.KEY, r)
        )
        where = self.out_dir / f"instance-{r}"
        sbm.write_instance(instance, where)
        back = sbm.read_instance(where)
        result = clustering.cluster(back.graph, back.seeds.labels())
        clustering.write_result_csv(where / "result.csv", result, back.truth, back.seeds)
        return instance, back, result, where

    def run_round(self, r, tracer):
        (instance, back, result, where), seconds = timed(tracer, self._op, r)
        self.outputs.append({
            "edges": np.array(instance.graph.edges),
            "edges_back": np.array(back.graph.edges),
            "seeds": instance.seeds.per_cluster,
            "seeds_back": back.seeds.per_cluster,
            "truth_back": np.array(back.truth.assignment),
            "assignment": np.array(result.assignment),
            "scores": np.array(result.scores),
            "tv_final": [d.tv_final for d in result.diagnostics],
            "csv": where / "result.csv",
        })
        return [seconds]

    def ops_per_round(self):
        return 1

    def check(self):
        truth = block_truth(self.SIZES)
        n = truth.size
        for r, out in enumerate(self.outputs):
            checks.check_same_edges(out["edges"], out["edges_back"])
            checks.require(out["seeds"] == out["seeds_back"], f"op {r}: seeds changed on read")
            checks.require((out["truth_back"] == truth).all(), f"op {r}: partition changed")
            checks.check_clustering(
                n, out["edges"], truth, out["seeds"], out["assignment"],
                out["scores"], out["tv_final"],
            )
            with open(out["csv"], newline="") as fh:
                table = list(csv.reader(fh))
            checks.check_result_csv(table, truth, out["assignment"], out["seeds"])


# ---------------------------------------------------------------------------
# oracle_exact: one large max-flow per op
# ---------------------------------------------------------------------------

class OracleExact(Workload):
    """mincut_tv_oracle on every one-vs-rest target of two N=3000 instances.

    The seed cut (15 seeds of degree ~40) is well above a cluster's
    boundary (~400 edges), so the optimum cuts the clusters apart and the
    flow is large.
    """

    SIZES = (1000, 1000, 1000)
    P_IN, P_OUT, S = 0.04, 0.0002, 15
    INSTANCES = 2
    KEY = 3

    def setup(self):
        params = SbmParams(self.SIZES, self.P_IN, self.P_OUT)
        self.targets = []
        for i in range(self.INSTANCES):
            instance = sbm.generate_instance(
                params, self.S, derived_seed(self.seed, self.KEY, i)
            )
            groups = instance.seeds.per_cluster
            for k in range(1, len(self.SIZES) + 1):
                self.targets.append((instance.graph, binary_targets(groups, k)))
        self.results = []

    def run_round(self, r, tracer):
        times, results = [], []
        for graph, seed_values in self.targets:
            result, seconds = timed(tracer, analysis.mincut_tv_oracle, graph, seed_values)
            times.append(seconds)
            results.append((result.optimal_tv, np.array(result.signal)))
        self.results.append(results)
        return times

    def ops_per_round(self):
        return len(self.targets)

    def check(self):
        first = self.results[0]
        for (graph, seed_values), (tv, signal) in zip(self.targets, first):
            ones, zeros = split_seeds(seed_values)
            checks.check_oracle(graph.num_nodes, graph.edges, ones, zeros, tv, signal)
        for r, results in enumerate(self.results[1:], start=1):
            for (tv0, s0), (tv, s) in zip(first, results):
                checks.require(tv == tv0 and (s == s0).all(),
                               f"round {r}: oracle output differs from round 0")


# ---------------------------------------------------------------------------
# certify_small: analyze_instance on small, well-connected instances
# ---------------------------------------------------------------------------

def certificates(sizes, edges, seed_groups) -> list[dict]:
    """Per-cluster verdicts decided by the benchmark for a block partition."""
    truth = block_truth(sizes)
    edges = np.asarray(edges)
    a, b = truth[edges[:, 0]], truth[edges[:, 1]]
    out = []
    offset = 0
    for k, n_k in enumerate(sizes, start=1):
        inside = (a == k) & (b == k)
        crossing = (a == k) != (b == k)
        ends = edges[crossing].ravel()
        boundary = sorted({int(i) - offset for i in ends if truth[i] == k})
        out.append(checks.cluster_certificates(
            n_k, edges[inside] - offset, boundary,
            [i - offset for i in seed_groups[k - 1]],
            truth.size, int(crossing.sum()),
        ))
        offset += n_k
    return out


class CertifySmall(Workload):
    """analyze_instance on (16,16) draws where every seed is well connected.

    Candidates are drawn from the benchmark seed and kept only when the
    independent max-flow check certifies every seed, so the program's
    circulation check runs through all of its boundary patterns.  Up to two
    rejected draws are analyzed after the timed phase, so the checks also
    see verdicts that fail.
    """

    SIZES = (16, 16)
    P_IN, P_OUT, S = 0.9, 0.02, 2
    INSTANCES = 8
    KEY = 4

    def setup(self):
        params = SbmParams(self.SIZES, self.P_IN, self.P_OUT)
        self.instances, self.expected, self.rejected = [], [], []
        j = 0
        while len(self.instances) < self.INSTANCES:
            instance = sbm.generate_instance(
                params, self.S, derived_seed(self.seed, self.KEY, j)
            )
            j += 1
            expected = certificates(
                self.SIZES, instance.graph.edges, instance.seeds.per_cluster
            )
            if all(all(c["wellconnected_by_seed"]) for c in expected):
                self.instances.append(instance)
                self.expected.append(expected)
            elif len(self.rejected) < 2:
                self.rejected.append((instance, expected))
        self.reports = []

    def run_round(self, r, tracer):
        times, reports = [], []
        for instance in self.instances:
            report, seconds = timed(tracer, analysis.analyze_instance, instance)
            times.append(seconds)
            reports.append(report)
        self.reports.append(reports)
        return times

    def ops_per_round(self):
        return self.INSTANCES

    @staticmethod
    def report_verdicts(row) -> dict:
        return {
            "size": row.size,
            "boundary_node_count": row.boundary_node_count,
            "boundary_edge_count": row.boundary_edge_count,
            "lambda2": row.lambda2,
            "spectral_cut_bound_holds": row.spectral_cut_bound_holds,
            "subset_cut_holds": row.subset_cut_holds,
            "uniform_cut_by_seed": tuple(f for _, f in row.uniform_cut_by_seed) or None,
            "wellconnected_by_seed": tuple(f for _, f in row.wellconnected_by_seed) or None,
            "wellconnected_holds": row.wellconnected_holds,
        }

    def check(self):
        check_known_certificates()
        for i, (instance, expected) in enumerate(self.rejected):
            report = analysis.analyze_instance(instance)
            for k, (row, want) in enumerate(zip(report.clusters, expected), 1):
                checks.check_certificates(
                    want, self.report_verdicts(row), f"rejected draw {i} cluster {k}"
                )
        for r, reports in enumerate(self.reports):
            for i, (report, expected) in enumerate(zip(reports, self.expected)):
                for k, (row, want) in enumerate(zip(report.clusters, expected), 1):
                    checks.check_certificates(
                        want, self.report_verdicts(row),
                        f"round {r} instance {i} cluster {k}",
                    )


BRIDGE_EDGES = [
    (0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
    (3, 4),
    (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
]

# (sizes, edges, one labeled node per cluster, per cluster the answers of
# (subset cut, uniform cut, well connected))
KNOWN_CERTIFICATES = (
    # criterion 7: two 4-node blocks joined by the bridge {3, 4}
    ((4, 4), BRIDGE_EDGES, ((0,), (7,)), ((True, True, True), (True, True, True))),
    # one unit edge cannot carry the boundary weight 2 to the labeled node
    ((2, 1), [(0, 1), (1, 2)], ((0,), (2,)), ((False, False, False), (True, True, True))),
)


def check_known_certificates() -> None:
    """The program and the re-deciders on graphs whose answers are known."""
    for sizes, edges, groups, answers in KNOWN_CERTIFICATES:
        g = build_graph(sum(sizes), edges)
        p = contiguous_partition(sizes)
        decided = certificates(sizes, edges, groups)
        for k, (want, mine) in enumerate(zip(answers, decided), start=1):
            labeled = groups[k - 1][0]
            res = analysis.subset_cut_check(g, p, k, labeled)
            got = (res.per_subset_holds, res.uniform_holds,
                   analysis.well_connected(g, p, k, labeled))
            ours = (mine["subset_cut_holds"], mine["uniform_cut_by_seed"][0],
                    mine["wellconnected_by_seed"][0])
            checks.require(got == want, f"{sizes} graph cluster {k}: program says {got}, "
                                        f"known answer {want}")
            checks.require(ours == want, f"{sizes} graph cluster {k}: re-decided {ours}, "
                                         f"known answer {want}")


WORKLOADS = {
    "sweep_ref": SweepRef,
    "cluster_large": ClusterLarge,
    "oracle_exact": OracleExact,
    "certify_small": CertifySmall,
}


def tracer_exact_min_tv(graph, seed_values) -> int:
    ones, zeros = split_seeds(seed_values)
    return checks.exact_min_tv(graph.num_nodes, graph.edges, ones, zeros)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched-at", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.out_dir)
    workload.setup()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.launched_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    round_times, op_times = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while not round_times or time.perf_counter() < deadline:
        r = len(round_times)
        start = time.perf_counter()
        attempted += workload.ops_per_round()
        try:
            op_times.extend(workload.run_round(r, tracer))
        except Exception:
            traceback.print_exc()
            failed += workload.ops_per_round()
        round_times.append(time.perf_counter() - start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    correct = failed < attempted
    try:
        if correct:
            workload.check()
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(round_times),
        "setup_s": setup_s,
        "wall_s": statistics.median(round_times),
        "op_p50_ms": workload.op_p50_ms(op_times) if op_times else None,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        values = tracer.per_layer(len(round_times), tracer_exact_min_tv)
        doc["per_layer"] = {
            name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER
        }
        doc["missing_targets"] = tracer.missing
        tracer.write(
            args.out_dir.parent / f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "rounds": len(round_times),
             "wall_s": doc["wall_s"]},
        )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
