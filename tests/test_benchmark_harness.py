"""The benchmark harness under perfbench/ keeps working against the library.

perfbench imports tvclust's modules and calls some entry points
positionally, so an API change that breaks it would otherwise show only
when the benchmark runs.
"""

import dataclasses
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tvclust.clustering import cluster
from tvclust.sbm import SbmParams, generate_instance
from tvclust.solver import MAX_ITERS
from tvclust.sweep import SweepConfig, run_sweep

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 problems" in proc.stdout, proc.stdout


@pytest.mark.parametrize(
    "workload", ["sweep_ref", "cluster_large", "oracle_exact", "certify_small"]
)
def test_workload_round_passes_its_check(tmp_path, workload):
    # one round of each benchmark workload, in its own process as
    # perfbench/run.py starts it, must pass the benchmark's own output
    # check: a change that fails it would otherwise show only when the
    # benchmark runs
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/workloads.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--launched-at", repr(time.monotonic()),
         "--out-dir", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] is True and doc["failed"] == 0, proc.stdout + proc.stderr


def test_run_sweep_positional_call():
    # the form perfbench/workloads.py uses: six positional SweepConfig
    # fields, then run_sweep(config, num_threads, measure_time)
    config = SweepConfig((8, 8), 0.05, (0.3, 0.6), (2,), 2, 42)
    assert config.max_iters == MAX_ITERS == 2000
    config = dataclasses.replace(config, max_iters=400)
    timed = run_sweep(config, 1, True)
    untimed = run_sweep(config)
    assert sum(r.wall_ms for r in timed) > 0
    assert [dataclasses.replace(r, wall_ms=0) for r in timed] == untimed


def test_tracer_targets_resolve():
    # perfbench/tracing.py wraps (module, attr) pairs and skips, with a
    # note, any that no longer exist; a rename would zero its metrics
    # without failing the benchmark, so the set that does not resolve is
    # pinned here.  Reading TARGETS installs nothing.
    path = ROOT / "perfbench" / "tracing.py"
    namespace = {"__name__": "perfbench_tracing", "__file__": str(path)}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    unresolved = {
        f"{module}.{attr}"
        for module, attr, _ in namespace["TARGETS"]
        if not callable(getattr(importlib.import_module(module), attr, None))
    }
    assert unresolved == {
        "tvclust.clustering.solve", "tvclust.analysis.circulation_feasible",
    }


def perfbench_checks():
    """perfbench/checks.py as a module, imported from its file."""
    path = ROOT / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "params, s, rng_seed",
    [
        # node 11 has 3 edges into each cluster: its scores are strictly
        # between 0 and 1, where the optimal cuts disagree
        (SbmParams((8, 5), 0.9, 0.06), 1, 3598535596647500966),
        # K = 4 with exact ties between score rows on 10 nodes
        (SbmParams((12, 12, 12, 12), 0.7, 0.02), 2, 16),
    ],
    ids=["tie_node_8_5", "k4_ties"],
)
def test_cluster_meets_benchmark_check(params, s, rng_seed):
    # the benchmark's correctness check of cluster() outputs: argmax decode
    # with ties to the smallest index, 0/1 scores on the seeds, reported TV
    # equal to the TV of the scores and at least the exact min cut
    checks = perfbench_checks()
    instance = generate_instance(params, s, rng_seed)
    result = cluster(instance.graph, instance.seeds.labels())
    top = result.scores.max(axis=0)  # the draw reaches tied or fractional scores
    assert ((result.scores == top).sum(axis=0) > 1).any() or (
        (0 < result.scores) & (result.scores < 1)
    ).any()
    checks.check_clustering(
        instance.graph.num_nodes, np.asarray(instance.graph.edges),
        np.asarray(instance.truth.assignment), instance.seeds.per_cluster,
        result.assignment, result.scores, [d.tv_final for d in result.diagnostics],
    )
