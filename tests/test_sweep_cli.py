import argparse
import csv
import functools
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from tvclust.cli import (
    GRID_MAX_POINTS,
    CliUsageError,
    _parse_probability_grid,
    build_parser,
    main,
)
from tvclust import sbm, sweep
from tvclust.sbm import SbmParams, generate_instance, read_instance
from tvclust.sweep import (
    SweepConfig,
    SweepConfigError,
    aggregate_rows,
    derive_instance_seed,
    run_one,
    run_sweep,
    write_aggregate_csv,
    write_sweep_csv,
)

DATA = Path(__file__).parent / "data"


def small_config(**overrides):
    base = dict(
        cluster_sizes=(8, 8),
        p_out=0.05,
        p_in_grid=(0.3, 0.6),
        s_values=(2,),
        reps=2,
        rng_seed=42,
        max_iters=400,
    )
    base.update(overrides)
    return SweepConfig(**base)


def batch_edges(monkeypatch):
    """Record, per batch that run_sweep clusters, each run's target edges
    (K times its edges); returns the list it fills."""
    batches, cluster_many = [], sweep._cluster_many

    def recorded(runs, max_iters):
        batches.append([len(set(labels.tolist())) * g.num_edges for g, _, labels in runs])
        return cluster_many(runs, max_iters)

    monkeypatch.setattr(sweep, "_cluster_many", recorded)
    return batches


class TestSweepEngine:
    def test_row_order_and_count(self):
        rows = run_sweep(small_config())
        assert len(rows) == 4
        assert [(r.p_in, r.rep) for r in rows] == [
            (0.3, 0), (0.3, 1), (0.6, 0), (0.6, 1),
        ]

    def test_num_threads_other_than_one_rejected(self):
        # sweeps run on one thread; the slot stays for positional callers
        with pytest.raises(SweepConfigError, match="num_threads=2"):
            run_sweep(small_config(), 2)

    def test_seed_derivation_stable_under_grid_growth(self):
        # adding grid points must not change existing rows' randomness
        assert derive_instance_seed(42, 0, 0, 1) == derive_instance_seed(42, 0, 0, 1)
        small = run_sweep(small_config())
        grown = run_sweep(small_config(p_in_grid=(0.3, 0.6, 0.9)))
        assert grown[:4] == small

    def test_aggregate_matches_recomputed_mean(self):
        config = small_config(reps=3)
        rows = run_sweep(config)
        agg = aggregate_rows(config, rows)
        for entry in agg:
            accs = [r.accuracy for r in rows if (r.s, r.ratio) == (entry.s, entry.ratio)]
            assert entry.reps == len(accs) == 3
            assert entry.mean_accuracy == pytest.approx(np.mean(accs), abs=1e-15)
            assert entry.std_accuracy == pytest.approx(np.std(accs), abs=1e-15)

    @pytest.mark.parametrize(
        "p_out, grid", [(0.0, (0.3, 0.6)), (0.1, (0.3, 0.3))],
        ids=["p_out_zero", "repeated_p_in"],
    )
    def test_aggregate_keeps_equal_ratio_grid_points_apart(self, p_out, grid):
        # both grids give two grid points with the same (s, ratio) key:
        # inf when p_out is 0, and one ratio for a repeated p_in
        config = small_config(p_out=p_out, p_in_grid=grid)
        rows = run_sweep(config)
        agg = aggregate_rows(config, rows)
        assert [a.reps for a in agg] == [2, 2]
        assert agg[0].ratio == agg[1].ratio
        for a, block in zip(agg, (rows[:2], rows[2:])):
            accs = [r.accuracy for r in block]
            assert a.mean_accuracy == pytest.approx(np.mean(accs), abs=1e-15)

    def test_ratio_field_arithmetic(self):
        for row in run_sweep(small_config()):
            assert row.ratio == row.s * row.p_in / row.p_out
            assert 0.0 <= row.accuracy <= 1.0

    def test_invalid_config(self):
        with pytest.raises(SweepConfigError):
            small_config(reps=0)
        with pytest.raises(SweepConfigError):
            small_config(p_in_grid=())
        with pytest.raises(SweepConfigError):
            small_config(s_values=(9,))  # exceeds smallest cluster

    @pytest.mark.parametrize(
        "field, value",
        [("s_values", (1.5,)), ("reps", 1.5), ("cluster_sizes", ()),
         ("cluster_sizes", (8.5, 8)), ("rng_seed", -1), ("rng_seed", 0.5)],
    )
    def test_bad_field_named(self, field, value):
        # each used to be accepted (s=1.5 wrote ratio 3.0 for runs that drew
        # one seed) or to fail later with a bare TypeError or ValueError
        with pytest.raises(SweepConfigError, match=field):
            small_config(**{field: value})

    def test_integer_valued_floats_stored_as_ints(self):
        config = small_config(cluster_sizes=(8.0, 8), s_values=(2.0,), reps=2.0,
                              rng_seed=42.0)
        assert config == small_config()
        ints = (*config.cluster_sizes, *config.s_values, config.reps, config.rng_seed)
        assert all(type(v) is int for v in ints)

    @pytest.mark.parametrize(
        "grid", [np.linspace(0.3, 0.6, 2), tuple(np.linspace(0.3, 0.6, 2))],
        ids=["array", "tuple"],
    )
    def test_numpy_probabilities_written_as_floats(self, tmp_path, grid):
        # numpy grid values used to reach the p_in, p_out and ratio columns
        # of both CSVs as "np.float64(0.3)" (and an array grid failed on
        # its truth value)
        config = small_config(p_in_grid=grid, p_out=np.float64(0.05))
        assert config == small_config()
        assert all(type(p) is float for p in (*config.p_in_grid, config.p_out))
        plain = small_config()
        for cfg, tag in ((config, "numpy"), (plain, "plain")):
            rows = run_sweep(cfg)
            write_sweep_csv(tmp_path / f"{tag}.csv", rows)
            write_aggregate_csv(tmp_path / f"{tag}_agg.csv", aggregate_rows(cfg, rows))
        for name in ("{}.csv", "{}_agg.csv"):
            text = (tmp_path / name.format("numpy")).read_text()
            assert "np." not in text
            assert text == (tmp_path / name.format("plain")).read_text()

    def test_sequence_fields_stored_as_tuples(self):
        # a list p_in_grid used to be stored as given, which made the
        # config unhashable and unequal to its tuple form
        config = small_config(cluster_sizes=[8, 8], p_in_grid=[0.3, 0.6], s_values=[2])
        assert config == small_config() and hash(config) == hash(small_config())
        assert all(type(getattr(config, name)) is tuple
                   for name in ("cluster_sizes", "p_in_grid", "s_values"))

    @pytest.mark.parametrize("field, value", [("p_out", "0.05"), ("p_out", None),
                                              ("p_in_grid", ("0.3",)),
                                              ("p_in_grid", (0.3, None))])
    def test_non_number_probability_named(self, field, value):
        # each used to raise a bare TypeError from the range check
        with pytest.raises(SweepConfigError, match=f"{field} must be a number"):
            small_config(**{field: value})

    def test_timing_off_by_default(self, tmp_path):
        rows = run_sweep(small_config())
        assert all(r.wall_ms == 0 for r in rows)
        out = tmp_path / "s.csv"
        write_sweep_csv(out, rows)
        assert out.read_text().splitlines()[0] == (
            "s,p_in,p_out,ratio,rep,instance_seed,accuracy,iters,wall_ms"
        )

    @pytest.mark.parametrize("seconds, wall_ms",
                             [(0.0003, 1), (0.0024, 2), (0.0026, 3)])
    def test_timed_run_reads_at_least_one_ms(self, monkeypatch, seconds, wall_ms):
        # a timed run under 0.5 ms used to read 0, the value of an untimed
        # row; longer runs still round to the nearest ms
        clock = iter([0.0, seconds])
        monkeypatch.setattr(sweep.time, "perf_counter", lambda: next(clock))
        assert run_one(small_config(), 0, 0, 0, measure_time=True).wall_ms == wall_ms
        # in a batched sweep a row reads its run's generation time plus an
        # equal share of its batch's clustering and scoring: here a quarter
        # of `seconds`, and half and a quarter of `seconds` per run in the
        # batch, on a clock that moves only inside those steps
        now = [0.0]

        def taking(fn, seconds_per_run, batched=False):
            def step(*args):
                now[0] += seconds_per_run * (len(args[0]) if batched else 1)
                return fn(*args)
            return step

        monkeypatch.setattr(sweep.time, "perf_counter", lambda: now[0])
        monkeypatch.setattr(sweep, "_ROW_EDGES", 150)
        batches = batch_edges(monkeypatch)
        monkeypatch.setattr(sweep, "_draw", taking(sweep._draw, 0.25 * seconds))
        for name, share in (("_cluster_many", 0.5), ("_accuracies", 0.25)):
            monkeypatch.setattr(sweep, name, taking(getattr(sweep, name), share * seconds,
                                                    batched=True))
        rows = run_sweep(small_config(reps=5), 1, True)
        assert len({len(batch) for batch in batches}) > 1
        assert [r.wall_ms for r in rows] == [wall_ms] * 10
        assert now[0] == pytest.approx(10 * seconds)  # the sweep's wall time

    @pytest.mark.parametrize("reps, row_edges", [(3, 150), (12, 150), (4, 60)])
    def test_batches_bounded_rows_in_order(self, monkeypatch, reps, row_edges):
        # a batch is clustered before the run that would take its target
        # edges past _ROW_EDGES, so however many reps, no batch holds more
        # (a run that alone holds more is a batch of its own); every row is
        # the row of its run on its own, in (grid, s, rep) order
        monkeypatch.setattr(sweep, "_ROW_EDGES", row_edges)
        batches = batch_edges(monkeypatch)
        config = small_config(p_in_grid=(0.1, 0.6), s_values=(1, 3), reps=reps)
        rows = run_sweep(config)
        assert all(sum(batch) <= row_edges or len(batch) == 1 for batch in batches)
        assert max(len(batch) for batch in batches) > 1
        if row_edges == 60:  # some runs alone are past it
            assert max(sum(batch) for batch in batches) > row_edges
        keys = [(gi, si, rep) for gi in range(2) for si in range(2) for rep in range(reps)]
        assert sum(len(b) for b in batches) == len(rows) == len(keys)
        for row, (gi, si, rep) in zip(rows, keys):
            assert (row.p_in, row.s, row.rep) == (config.p_in_grid[gi], config.s_values[si], rep)
            assert row.instance_seed == derive_instance_seed(42, gi, si, rep)
            assert row == run_one(config, gi, si, rep)


def random_models(count, seed):
    """(cluster sizes, p_out, p_in grid, s values) of `count` random block
    models: K 1-4, unequal sizes from 1, p_out 0, 1 or between, a grid with
    one p_in at most p_out, and s values up to the smallest cluster."""
    rng = np.random.default_rng(seed)
    models = [((1, 5, 3), 1.0, (0.0, 0.7), (1,)), ((7,), 0.0, (0.5, 0.0), (3,))]
    while len(models) < count:
        sizes = tuple(int(n) for n in rng.integers(1, 16, size=rng.integers(1, 5)))
        p_out = float(rng.choice([0.0, 1.0, rng.uniform(0.05, 0.5)]))
        grid = (float(rng.uniform()), float(rng.uniform(0.0, p_out)))
        s_values = tuple(sorted({int(s) for s in rng.integers(1, min(sizes) + 1, size=2)}))
        models.append((sizes, p_out, grid, s_values))
    return models


class TestSharedLayout:
    """run_sweep builds one layout of the model and draws every run through
    it: each instance is generate_instance's and each row run_one's."""

    @pytest.mark.parametrize("model", random_models(11, 3), ids=str)
    def test_sweep_draws_what_generate_instance_draws(self, monkeypatch, model):
        sizes, p_out, grid, s_values = model
        # rows of 16 pairs and more make a draw of several chunks
        monkeypatch.setattr(sbm, "PAIR_CHUNK", 16)
        layouts, drawn = [], []

        def layout(*args):
            layouts.append(make(*args))
            return layouts[-1]

        def draw(*args):
            drawn.append(draw_run(*args))
            return drawn[-1]

        make, draw_run = sweep._Layout, sweep._draw
        monkeypatch.setattr(sweep, "_Layout", layout)
        monkeypatch.setattr(sweep, "_draw", draw)
        config = SweepConfig(sizes, p_out, grid, s_values, 2, 11, max_iters=300)
        rows = run_sweep(config)
        assert len(layouts) == 1  # once per sweep, not per run
        n = sum(sizes)
        assert len(layouts[0].chunks) > 1 or n * (n - 1) // 2 <= 16
        monkeypatch.undo()  # one chunk per draw from here on
        keys = [(gi, si, rep) for gi in range(len(grid))
                for si in range(len(s_values)) for rep in range(2)]
        assert len(rows) == len(drawn) == len(keys)
        for row, instance, (gi, si, rep) in zip(rows, drawn, keys):
            alone = generate_instance(SbmParams(sizes, grid[gi], p_out), s_values[si],
                                      derive_instance_seed(11, gi, si, rep))
            assert instance.graph.edges.dtype == alone.graph.edges.dtype == np.int32
            assert instance.graph.edges.tobytes() == alone.graph.edges.tobytes()
            assert instance.seeds == alone.seeds
            assert_array_equal(instance.truth.assignment, alone.truth.assignment)
            assert row == run_one(config, gi, si, rep)


class TestCliGenerate:
    def test_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "inst"
        code = main([
            "generate", "--sizes", "3,3", "--p-in", "1", "--p-out", "0",
            "--num-seeds", "1", "--rng-seed", "7", "--out", str(out),
        ])
        assert code == 0
        inst = read_instance(out)
        assert inst.graph.num_edges == 6
        assert "n=6" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["generate", "--sizes", "5,5", "--p-in", "0.8", "--p-out", "0.1",
                "--num-seeds", "2", "--rng-seed", "3"]
        main(argv + ["--out", str(tmp_path / "a")])
        main(argv + ["--out", str(tmp_path / "b")])
        for name in ("header.txt", "edges.txt", "partition.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_reference_header(self, tmp_path):
        out = tmp_path / "inst"
        main(["generate", "--sizes", "50,50", "--p-in", "0.5", "--p-out", "0.025",
              "--num-seeds", "5", "--rng-seed", "1", "--out", str(out)])
        header = (out / "header.txt").read_text()
        assert "n=100" in header and "sizes=50,50" in header and "S=5" in header

    def test_nodes_shorthand(self, tmp_path):
        code = main(["generate", "--nodes", "10", "--p-in", "0.5", "--p-out", "0.1",
                     "--num-seeds", "1", "--rng-seed", "0",
                     "--out", str(tmp_path / "x")])
        assert code == 0
        assert read_instance(tmp_path / "x").params.cluster_sizes == (5, 5)

    def test_negative_rng_seed_named(self, tmp_path, capsys):
        # used to print numpy's bare `ValueError: expected non-negative integer`
        code = main(["generate", "--sizes", "3,3", "--p-in", "1", "--p-out", "0",
                     "--num-seeds", "1", "--rng-seed", "-1",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error: RngSeedError: rng_seed=-1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_odd_nodes_rejected(self, tmp_path, capsys):
        code = main(["generate", "--nodes", "9", "--p-in", "0.5", "--p-out", "0.1",
                     "--num-seeds", "1", "--rng-seed", "0",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "CliUsageError" in capsys.readouterr().err


class TestCliCluster:
    def test_disjoint_triangles_perfect(self, tmp_path, capsys):
        inst = tmp_path / "inst"
        main(["generate", "--sizes", "3,3", "--p-in", "1", "--p-out", "0",
              "--num-seeds", "1", "--rng-seed", "7", "--out", str(inst)])
        code = main(["cluster", "--instance", str(inst),
                     "--out", str(tmp_path / "result.csv")])
        assert code == 0
        assert "accuracy=1.0" in capsys.readouterr().out
        with open(tmp_path / "result.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 7

    def test_corrupt_instance_named_error(self, tmp_path, capsys):
        inst = tmp_path / "inst"
        main(["generate", "--sizes", "3,3", "--p-in", "1", "--p-out", "0",
              "--num-seeds", "1", "--rng-seed", "7", "--out", str(inst)])
        (inst / "edges.txt").write_text("0 0\n")
        code = main(["cluster", "--instance", str(inst)])
        assert code == 1
        assert "SelfLoopError" in capsys.readouterr().err

    def test_integer_outside_int64_named(self, tmp_path, capsys):
        inst = tmp_path / "inst"
        main(["generate", "--sizes", "3,3", "--p-in", "1", "--p-out", "0",
              "--num-seeds", "1", "--rng-seed", "7", "--out", str(inst)])
        (inst / "edges.txt").write_text("0 1\n99999999999999999999 2\n")
        assert main(["cluster", "--instance", str(inst)]) == 1
        err = capsys.readouterr().err
        assert "GraphInputError" in err and "edges.txt:2:" in err

    def test_inline_params(self, capsys):
        code = main(["cluster", "--sizes", "4,4", "--p-in", "1", "--p-out", "0",
                     "--num-seeds", "1", "--rng-seed", "5"])
        assert code == 0
        assert "accuracy=1.0" in capsys.readouterr().out

    @pytest.mark.parametrize("by_config", [False, True], ids=["flags", "config"])
    def test_instance_with_model_options_is_usage_error(self, tmp_path, capsys,
                                                        by_config):
        # each model option used to be ignored without a word
        inst = tmp_path / "inst"
        main(["generate", "--sizes", "3,3", "--p-in", "1", "--p-out", "0",
              "--num-seeds", "1", "--rng-seed", "7", "--out", str(inst)])
        capsys.readouterr()
        options = {"p-in": "0.9", "sizes": "5,5,5", "num-seeds": "4",
                   "rng-seed": "99", "nodes": "8", "p-out": "0.1"}
        argv = ["cluster", "--instance", str(inst), "--max-iters", "400",
                "--out", str(tmp_path / "result.csv")]
        if by_config:
            cfg = tmp_path / "model.cfg"
            cfg.write_text("".join(f"{k}={v}\n" for k, v in options.items()))
            argv += ["--config", str(cfg)]
        else:
            argv += [text for k, v in options.items() for text in (f"--{k}", v)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: CliUsageError: --instance reads the model from its files; "
            "do not also give --sizes, --nodes, --p-in, --p-out, --num-seeds, "
            "--rng-seed\n"
        )
        assert not (tmp_path / "result.csv").exists()

    def test_summary_reports_worst_gap(self, capsys):
        argv = ["cluster", "--sizes", "30,30", "--p-in", "0.3", "--p-out", "0.02",
                "--num-seeds", "2", "--rng-seed", "5"]
        gaps, reasons = [], []
        for budget in ("9", "2000"):
            assert main(argv + ["--max-iters", budget]) == 0
            fields = dict(f.split("=") for f in capsys.readouterr().out.split())
            gaps.append(float(fields["gap"]))
            reasons.append(fields["stop_reason"].split(","))
        # 9 sweeps leave a solve uncertified; the default budget certifies
        # every solve, each on an optimal level set
        assert gaps[0] > 1e-6 >= gaps[1]
        assert "budget" in reasons[0] and reasons[1] == ["level_set"]


class TestCliSweep:
    ARGV = ["sweep", "--sizes", "8,8", "--p-out", "0.05", "--p-in-grid", "0.3,0.6",
            "--num-seeds", "2", "--reps", "2", "--rng-seed", "42",
            "--max-iters", "400"]

    def test_golden_schema_and_content(self, tmp_path):
        out = tmp_path / "sweep.csv"
        agg = tmp_path / "agg.csv"
        code = main(self.ARGV + ["--out", str(out), "--aggregate-out", str(agg)])
        assert code == 0
        assert out.read_bytes() == (DATA / "golden_sweep.csv").read_bytes()
        assert agg.read_bytes() == (DATA / "golden_sweep_agg.csv").read_bytes()

    def test_default_aggregate_path(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(self.ARGV + ["--out", str(out)])
        assert (tmp_path / "sweep_agg.csv").exists()

    def test_gnuplot_script(self, tmp_path):
        out = tmp_path / "sweep.csv"
        gp = tmp_path / "plot.gp"
        main(self.ARGV + ["--out", str(out), "--gnuplot-out", str(gp)])
        assert "plot" in gp.read_text()

    @pytest.mark.parametrize("name", ["my results_agg.csv", "it's \"q\" $HOME a\\b.csv"],
                             ids=["space", "quotes"])
    def test_gnuplot_script_quotes_aggregate_path(self, tmp_path, name):
        # the aggregate path used to go unquoted into the shell command of
        # gnuplot's system(), so a space made awk read two files, and in
        # bare single quotes as the data file, which a quote broke
        out, agg, gp = tmp_path / "sweep.csv", tmp_path / name, tmp_path / "plot.gp"
        main(self.ARGV + ["--out", str(out), "--aggregate-out", str(agg),
                          "--gnuplot-out", str(gp)])
        text = gp.read_text()
        # gnuplot's double-quoted string, with its \" and \\ escapes undone
        command = re.search(r'system\("((?:[^"\\]|\\.)*)"\)', text).group(1)
        command = re.sub(r"\\(.)", r"\1", command)
        assert shlex.split(command) == [
            "awk", "-F,", "NR>1 {print $1}", str(agg), "|", "sort", "-nu",
        ]
        data = re.search(r"^    '((?:[^']|'')*)' using", text, re.M).group(1)
        assert data.replace("''", "'") == str(agg)
        if shutil.which("awk") and shutil.which("sort"):
            run = subprocess.run(["sh", "-c", command], capture_output=True, text=True)
            assert run.stdout == "2\n"

    def test_range_grid_syntax(self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--sizes", "6,6", "--p-out", "0.1",
                "--p-in-grid", "0.2:0.6:0.2", "--num-seeds", "1", "--reps", "1",
                "--rng-seed", "1", "--max-iters", "100", "--out", str(out)]
        assert main(argv) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["p_in"] for r in rows] == ["0.2", "0.4", "0.6"]

    @pytest.mark.parametrize(
        "grid", ["0.1:0.5:nan", "0.1:inf:0.1", "nan:0.5:0.1", "0.1:0.5:inf"]
    )
    def test_non_finite_range_grid_rejected(self, tmp_path, capsys, grid):
        # a NaN step or an infinite stop used to extend the grid forever
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--sizes", "6,6", "--p-out", "0.1", "--p-in-grid", grid,
                "--num-seeds", "1", "--reps", "1", "--rng-seed", "1",
                "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "CliUsageError" in err and "finite" in err
        assert not out.exists()

    def test_huge_range_grid_refused_before_it_is_built(self, tmp_path, capsys):
        # 0:1:1e-9 makes 10^9 + 1 points, which used to take about 800 s
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--sizes", "6,6", "--p-out", "0.1",
                "--p-in-grid", "0:1:1e-9", "--num-seeds", "1", "--reps", "1",
                "--rng-seed", "1", "--out", str(out)]
        started = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: CliUsageError: argument --p-in-grid:")
        assert "1000000001 points" in err and str(GRID_MAX_POINTS) in err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "0:1:1e-5", "0:0.99999:1e-5", "0.2:0.6:0.2", "0.025:0.5:0.025",
        "0.5:0.1:0.1", "0.3:0.3:0.1", "0.1:0.7:0.3", "1e20:1e20:1",
    ])
    def test_range_grid_points_counted_before_they_are_made(self, text):
        # the points of the grid loop that every accepted range goes by
        start, stop, step = (float(x) for x in text.split(":"))
        points = []
        while len(points) <= GRID_MAX_POINTS:
            v = start + len(points) * step
            if v > stop + 1e-12:
                break
            points.append(round(v, 12))
        if len(points) > GRID_MAX_POINTS:
            with pytest.raises(argparse.ArgumentTypeError, match="more than"):
                _parse_probability_grid(text)
        else:
            assert _parse_probability_grid(text) == tuple(points)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "sizes=8,8\np-out=0.05\np-in-grid=0.3,0.6\nnum-seeds=2\n"
            "reps=2\nrng-seed=42\nmax-iters=400\n"
        )
        out1 = tmp_path / "a.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert out1.read_bytes() == (DATA / "golden_sweep.csv").read_bytes()
        # flag overrides the file's rng seed -> different instance seeds
        out2 = tmp_path / "b.csv"
        assert main(["sweep", "--config", str(cfg), "--rng-seed", "43",
                     "--out", str(out2)]) == 0
        assert out2.read_bytes() != out1.read_bytes()

    def test_missing_option_named_error(self, tmp_path, capsys):
        code = main(["sweep", "--sizes", "8,8", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "CliUsageError" in capsys.readouterr().err

    def test_non_numeric_flag_is_usage_error(self, tmp_path, capsys):
        code = main(self.ARGV[:-1] + ["abc", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "CliUsageError" in err and "--max-iters" in err

    @pytest.mark.parametrize(
        "command, line",
        [("sweep", "max_iter=3"), ("sweep", "timing=yes"),
         ("sweep", "config=other.cfg"), ("analyze", "format=text"),
         ("generate", "permute=yes"), ("cluster", "reps=2"), ("sweep", "tol=1e-6")],
    )
    def test_config_key_not_read_is_usage_error(self, tmp_path, capsys, command, line):
        # each of these keys but tol used to be ignored without a word; tol
        # is no longer a solver setting
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "CliUsageError" in err and line.split("=")[0] in err
        assert not (tmp_path / "x").exists()

    def test_malformed_config_line_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("sizes=8,8\nreps 2\n")
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "CliUsageError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--sizes", "4,4", "--p-in", "1", "--p-out", "0",
         "--num-seeds", "1", "--rng-seed", "5", "--max-iters", "0"],
        TestCliSweep.ARGV + ["--max-iters", "0", "--out", "unused.csv"],
        ["cluster", "--sizes", "4,4", "--p-in", "1", "--p-out", "0",
         "--num-seeds", "1", "--rng-seed", "5", "--config", "budget.cfg"],
        TestCliSweep.ARGV[:-2] + ["--config", "budget.cfg", "--out", "unused.csv"],
    ],
    ids=["cluster_max_iters", "sweep_max_iters",
         "cluster_config_max_iters", "sweep_config_max_iters"],
)
def test_bad_solver_setting_named_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("budget.cfg").write_text("max-iters=0\n")
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: SolverConfigError: max_iters must be >= 1, got 0\n"
    )
    assert not Path("unused.csv").exists()


@pytest.mark.parametrize("command", ["cluster", "sweep"])
def test_tol_flag_is_usage_error(command, capsys):
    # the sweep budget is the solver's one setting; argparse's own errors
    # are usage errors like any other, one named line and exit status 2
    assert main([command, "--tol", "1e-6"]) == 2
    err = capsys.readouterr().err
    assert err == "error: CliUsageError: unrecognized arguments: --tol 1e-6\n"


def subcommands():
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# (subcommand, flag) of every option a config file may set: each option
# that takes a value and has no default of its own
FILE_OPTIONS = sorted(
    (name, action.option_strings[0])
    for name, sub in subcommands().items() for action in sub._actions
    if action.option_strings and action.nargs is None and action.default is None
    and action.option_strings[0] != "--config"
)
# option text: numbers, lists, bounded ranges (a tiny step would make an
# enormous grid) and free text without ':' or whitespace
OPTION_TEXT = st.one_of(
    st.integers(-10**20, 10**20).map(str),
    st.floats().map(repr),
    st.lists(st.integers(-5, 99), min_size=1, max_size=4).map(
        lambda v: ",".join(map(str, v))),
    st.tuples(st.floats(-1, 2), st.floats(-1, 2),
              st.one_of(st.floats(0.05, 1), st.floats(-1, 0))).map(
        lambda t: ":".join(map(repr, t))),
    st.text(st.characters(min_codepoint=33, max_codepoint=126,
                          blacklist_characters=":"), max_size=12),
)


def parsed_option(argv, flag):
    """repr of the option's parsed value, or the usage error's message."""
    try:
        args = build_parser().parse_args(argv)
    except CliUsageError as exc:
        return f"CliUsageError: {exc}"
    return repr(getattr(args, flag[2:].replace("-", "_")))


def test_file_options_cover_every_subcommand():
    assert {name for name, _ in FILE_OPTIONS} == set(subcommands())
    assert ("sweep", "--max-iters") in FILE_OPTIONS


@given(option=st.sampled_from(FILE_OPTIONS), text=OPTION_TEXT, flag_text=OPTION_TEXT)
@settings(max_examples=300, deadline=None)
def test_config_value_parses_like_flag(option, text, flag_text):
    command, flag = option
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(f"{flag[2:]}={text}\n")
        from_file = parsed_option([command, "--config", str(cfg)], flag)
        assert from_file == parsed_option([command, f"{flag}={text}"], flag)
        # a flag beats the file, whether or not the file's value parses
        both = parsed_option([command, "--config", str(cfg), f"{flag}={flag_text}"], flag)
        assert both == parsed_option([command, f"{flag}={flag_text}"], flag)


def test_module_entry_point_exit_status(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    run = functools.partial(subprocess.run, cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=60)
    bad = run([sys.executable, "-m", "tvclust.cli", *TestCliSweep.ARGV[:-1], "abc",
               "--out", "x.csv"])
    assert bad.returncode == 2
    assert bad.stderr.splitlines() == [
        "error: CliUsageError: argument --max-iters: invalid int value: 'abc'"
    ]
    assert not (tmp_path / "x.csv").exists()
    for argv in (["--help"], ["sweep", "--help"]):
        shown = run([sys.executable, "-m", "tvclust.cli", *argv])
        assert shown.returncode == 0 and "usage: tvclust" in shown.stdout


def test_readme_cli_flags_match_parser():
    # the flags README's CLI section names are exactly those the parser
    # defines, so a removed flag cannot linger in the docs
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*[a-z]", section))
    defined = {flag for sub in subcommands().values() for action in sub._actions
               for flag in action.option_strings if flag != "--help"}
    assert documented == defined - {"-h"}


# `tvclust generate` arguments of the instances whose `tvclust analyze` CSVs,
# each after a `# <arguments>` line, make up tests/data/golden_analysis.csv:
# a certified (16,16) draw, failing (100,100) and (60,60,60) draws, holding
# (60,60,60) and (50,50) draws, a permuted draw (clusters that are not id
# blocks) and one cluster with no boundary
GOLDEN_ANALYSIS = (
    "--sizes 16,16 --p-in 0.9 --p-out 0.02 --num-seeds 2 --rng-seed 0",
    "--sizes 100,100 --p-in 0.3 --p-out 0.05 --num-seeds 5 --rng-seed 1",
    "--sizes 60,60,60 --p-in 0.5 --p-out 0.02 --num-seeds 3 --rng-seed 0",
    "--sizes 60,60,60 --p-in 0.9 --p-out 0.002 --num-seeds 3 --rng-seed 0",
    "--sizes 50,50 --p-in 0.5 --p-out 0.025 --num-seeds 5 --rng-seed 3",
    "--sizes 20,10,15 --p-in 0.9 --p-out 0.01 --num-seeds 2 --rng-seed 0 --permute",
    "--sizes 12 --p-in 0.5 --p-out 0 --num-seeds 1 --rng-seed 2",
)


def golden_analysis_bytes(tmp_path) -> bytes:
    parts = []
    for i, args in enumerate(GOLDEN_ANALYSIS):
        inst, out = tmp_path / f"inst{i}", tmp_path / f"analysis{i}.csv"
        assert main(["generate", *args.split(), "--out", str(inst)]) == 0
        assert main(["analyze", "--instance", str(inst), "--out", str(out)]) == 0
        parts.append(f"# {args}\r\n".encode() + out.read_bytes())
    return b"".join(parts)


class TestCliAnalyze:
    def test_golden_analysis_csv(self, tmp_path):
        golden = (DATA / "golden_analysis.csv").read_bytes()
        assert golden_analysis_bytes(tmp_path) == golden

    def test_bridge_style_instance_report(self, tmp_path):
        # hand-written instance: two dense blocks, one bridge, seeds 0 and 7
        inst = tmp_path / "inst"
        inst.mkdir()
        (inst / "header.txt").write_text(
            "n=8\nsizes=4,4\np_in=0.9\np_out=0.05\nrng_seed=0\nS=1\nseeds=0,7\n"
        )
        (inst / "edges.txt").write_text(
            "0 1\n0 2\n1 2\n1 3\n2 3\n3 4\n4 5\n4 6\n5 6\n5 7\n6 7\n"
        )
        (inst / "partition.txt").write_text(
            "".join(f"{i} {1 if i < 4 else 2}\n" for i in range(8))
        )
        out = tmp_path / "report.csv"
        code = main(["analyze", "--instance", str(inst), "--alpha", "0.1",
                     "--beta", "0.001", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows[:2]:
            assert float(row["lambda2"]) > 0
            assert row["wellconnected_holds"] == "true"
            assert row["subset_cut_holds"] == "true"
        assert rows[2]["scope"] == "global"

    def test_text_format_to_stdout(self, tmp_path, capsys):
        inst = tmp_path / "inst"
        main(["generate", "--sizes", "4,4", "--p-in", "1", "--p-out", "0",
              "--num-seeds", "1", "--rng-seed", "2", "--out", str(inst)])
        code = main(["analyze", "--instance", str(inst), "--format", "text"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster 1" in out and "global:" in out

    def test_zero_p_out_instance(self, tmp_path):
        inst = tmp_path / "inst"
        main(["generate", "--sizes", "4,4", "--p-in", "1", "--p-out", "0",
              "--num-seeds", "1", "--rng-seed", "2", "--out", str(inst)])
        out = tmp_path / "report.csv"
        main(["analyze", "--instance", str(inst), "--out", str(out)])
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows[:2]:
            assert row["boundary_edge_count"] == "0"
            assert row["spectral_cut_bound_holds"] == "true"
            assert row["condition_lhs"] == "inf"

    @pytest.mark.parametrize(
        "option, value",
        [("--alpha", "nan"), ("--alpha", "-1"), ("--alpha", "0"),
         ("--alpha", "inf"), ("--beta", "nan"), ("--beta", "-inf")],
    )
    def test_bad_condition_parameter_named_error(self, tmp_path, capsys, option, value):
        # NaN used to print a NaN bound and exit 0; -1 an unnamed ValueError
        inst = tmp_path / "inst"
        main(["generate", "--sizes", "4,4", "--p-in", "1", "--p-out", "0.5",
              "--num-seeds", "1", "--rng-seed", "2", "--out", str(inst)])
        capsys.readouterr()
        code = main(["analyze", "--instance", str(inst), "--format", "text",
                     f"{option}={value}"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: ConditionParameterError: " in err
        assert option.lstrip("-") in err

    def test_missing_instance_named_error(self, capsys):
        code = main(["analyze", "--format", "text"])
        assert code == 2
        assert "CliUsageError" in capsys.readouterr().err
