"""The benchmark harness under perfbench/ keeps working against the library.

perfbench imports tvclust's modules and calls some entry points
positionally, so an API change that breaks it would otherwise show only
when the benchmark runs.
"""

import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

from tvclust.solver import SolverConfig
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


def test_run_sweep_positional_call():
    # the form perfbench/workloads.py uses: six positional SweepConfig
    # fields, then run_sweep(config, num_threads, measure_time)
    config = SweepConfig((8, 8), 0.05, (0.3, 0.6), (2,), 2, 42)
    assert config.solver == SolverConfig()
    config = dataclasses.replace(config, solver=SolverConfig(max_iters=400))
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
