"""Spans around the calls into tvclust's modules, recorded from outside.

The tracer replaces functions at the module attributes their callers look
up at call time (``tvclust.sweep.generate_instance``,
``tvclust.clustering.solve``, ``tvclust.analysis.min_cut``, ...), so the
program itself is not edited.  A target that no longer exists is skipped
and noted in ``missing``, and so is a target whose arguments or result no
longer have the shape the counts read; the metrics that depend on either
then read 0.
Spans (name, start, end, parent) stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name).  One span name may be wrapped at several
# import sites; the benchmark's own calls go through the module attributes.
TARGETS = (
    ("tvclust.sweep", "run_sweep", "sweep.run_sweep"),
    ("tvclust.sweep", "run_one", "sweep.run_one"),
    ("tvclust.sweep", "generate_instance", "sbm.generate_instance"),
    ("tvclust.sbm", "generate_instance", "sbm.generate_instance"),
    ("tvclust.sbm", "write_instance", "sbm.write_instance"),
    ("tvclust.sbm", "read_instance", "sbm.read_instance"),
    ("tvclust.sbm", "build_graph", "graphs.build_graph"),
    ("tvclust.graphs", "build_graph", "graphs.build_graph"),
    ("tvclust.sweep", "cluster", "clustering.cluster"),
    ("tvclust.clustering", "cluster", "clustering.cluster"),
    ("tvclust.clustering", "write_result_csv", "clustering.write_result_csv"),
    ("tvclust.clustering", "solve", "solver.solve"),
    ("tvclust.analysis", "mincut_tv_oracle", "analysis.mincut_tv_oracle"),
    ("tvclust.analysis", "min_cut", "flows.min_cut"),
    ("tvclust.analysis", "analyze_instance", "analysis.analyze_instance"),
    ("tvclust.analysis", "subset_cut_check", "analysis.subset_cut_check"),
    ("tvclust.analysis", "well_connected", "analysis.well_connected"),
    ("tvclust.analysis", "spectral_cut_bound_check", "analysis.spectral_cut_bound_check"),
    ("tvclust.analysis", "circulation_feasible", "flows.circulation_feasible"),
)

# name, unit, better; the order of the per_layer list in BENCHMARK.json
PER_LAYER = (
    ("sweep.run_s", "s", "lower"),
    ("sweep.overhead_s", "s", "lower"),
    ("sbm.generate_s", "s", "lower"),
    ("sbm.instance_io_s", "s", "lower"),
    ("sbm.instance_bytes", "bytes", "lower"),
    ("graphs.build_s", "s", "lower"),
    ("graphs.build_calls", "count", "lower"),
    ("graphs.edges", "count", "lower"),
    ("solver.solve_s", "s", "lower"),
    ("solver.solves", "count", "lower"),
    ("solver.sweeps", "count", "lower"),
    ("solver.sweep_us", "us", "lower"),
    ("solver.sweeps_p50", "count", "lower"),
    ("solver.converged", "count", "higher"),
    ("solver.tv_gap_rel_max", "ratio", "lower"),
    ("clustering.cluster_s", "s", "lower"),
    ("clustering.decode_s", "s", "lower"),
    ("clustering.result_csv_s", "s", "lower"),
    ("analysis.oracle_s", "s", "lower"),
    ("analysis.oracle_network_s", "s", "lower"),
    ("flows.min_cut_s", "s", "lower"),
    ("analysis.subset_cut_s", "s", "lower"),
    ("analysis.well_connected_s", "s", "lower"),
    ("analysis.spectral_s", "s", "lower"),
    ("flows.circulation_calls", "count", "lower"),
    ("flows.circulation_s", "s", "lower"),
    ("flows.circulation_us", "us", "lower"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.missing: list[str] = []
        self.solves: list[tuple] = []  # (graph, seed_values, iters, converged, tv)
        self.graph_edges = 0
        self.instance_bytes = 0
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            try:
                self._observe(name, args, result)
            except (AttributeError, IndexError, TypeError):
                self._unreadable(name)
            return result

        return traced

    def _unreadable(self, what: str) -> None:
        """A target whose call no longer has the shape the counts assume."""
        note = f"{what}: call shape changed, its counts skipped"
        if note not in self.missing:
            self.missing.append(note)

    def _observe(self, name: str, args, result) -> None:
        """Counts read off a call's arguments and result, outside its span."""
        if name == "graphs.build_graph":
            self.graph_edges += result.num_edges
        elif name == "solver.solve":
            graph, seed_values = args[0], args[1]
            diag = result[1]
            self.solves.append(
                (graph, seed_values, diag.iters, diag.converged, diag.tv_final)
            )
        elif name == "sbm.write_instance":
            out = args[1]
            self.instance_bytes += sum(
                entry.stat().st_size for entry in os.scandir(out) if entry.is_file()
            )

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            target = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{target}: not found, skipped")
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    # -- reduction ---------------------------------------------------------

    def totals(self):
        """Total and self time and call count per span name."""
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[index]
            calls[name] += 1
        return total, self_time, calls

    def per_layer(self, rounds: int, exact_min_tv) -> dict[str, float]:
        """Per-layer metrics per round of the workload.

        `exact_min_tv(graph, seed_values)` gives the exact optimum of one
        recorded solve; it runs here, after tracing has ended.
        """
        total, self_time, calls = self.totals()
        per = 1.0 / rounds
        iters = np.array([s[2] for s in self.solves], dtype=np.float64)
        gap = 0.0
        try:
            for graph, seed_values, _, _, tv in self.solves:
                exact = exact_min_tv(graph, seed_values)
                gap = max(gap, (tv - exact) / max(exact, 1))
        except (AttributeError, TypeError):
            self._unreadable("solver.tv_gap_rel_max")
        solve_s = total["solver.solve"]
        circ_s = total["flows.circulation_feasible"]
        circ_calls = calls["flows.circulation_feasible"]
        values = {
            "sweep.run_s": total["sweep.run_sweep"] * per,
            "sweep.overhead_s": (total["sweep.run_sweep"] - total["sweep.run_one"]) * per,
            "sbm.generate_s": total["sbm.generate_instance"] * per,
            "sbm.instance_io_s": (
                total["sbm.write_instance"] + total["sbm.read_instance"]
            ) * per,
            "sbm.instance_bytes": self.instance_bytes * per,
            "graphs.build_s": total["graphs.build_graph"] * per,
            "graphs.build_calls": calls["graphs.build_graph"] * per,
            "graphs.edges": self.graph_edges * per,
            "solver.solve_s": solve_s * per,
            "solver.solves": len(self.solves) * per,
            "solver.sweeps": float(iters.sum()) * per,
            "solver.sweep_us": 1e6 * solve_s / iters.sum() if iters.size else 0.0,
            "solver.sweeps_p50": float(np.median(iters)) if iters.size else 0.0,
            "solver.converged": sum(1 for s in self.solves if s[3]) * per,
            "solver.tv_gap_rel_max": gap,
            "clustering.cluster_s": total["clustering.cluster"] * per,
            "clustering.decode_s": self_time["clustering.cluster"] * per,
            "clustering.result_csv_s": total["clustering.write_result_csv"] * per,
            "analysis.oracle_s": total["analysis.mincut_tv_oracle"] * per,
            "analysis.oracle_network_s": self_time["analysis.mincut_tv_oracle"] * per,
            "flows.min_cut_s": total["flows.min_cut"] * per,
            "analysis.subset_cut_s": total["analysis.subset_cut_check"] * per,
            "analysis.well_connected_s": total["analysis.well_connected"] * per,
            "analysis.spectral_s": total["analysis.spectral_cut_bound_check"] * per,
            "flows.circulation_calls": circ_calls * per,
            "flows.circulation_s": circ_s * per,
            "flows.circulation_us": 1e6 * circ_s / circ_calls if circ_calls else 0.0,
        }
        return {name: values[name] for name, _, _ in PER_LAYER}

    def write(self, path, extra: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {name: i for i, name in enumerate(names)}
        doc = {
            **extra,
            "missing_targets": self.missing,
            "span_names": names,
            "spans": [
                [code[name], round(start, 7), round(end, 7), parent]
                for name, start, end, parent in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

