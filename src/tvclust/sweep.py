"""Monte Carlo accuracy sweeps over block-model parameter grids.

Every run (one generated instance, one clustering, one accuracy figure)
has its own RNG stream derived from the master seed through the spawn key
(grid index, s index, rep index), so adding grid points or reordering the
schedule never changes any existing row.  A sweep builds the model's
layout (:class:`tvclust.sbm._Layout`) once and its `SbmParams` once per
grid point, and draws its runs one at a time, in (grid, s, rep) order,
through them, each on its own streams and through `SbmInstance`'s check.
The runs are queued; the queue, all with the same N, is clustered and
scored as one batch, in which every row is computed exactly as in a run
of its own (:func:`run_one`).  The config is checked when it is made, and
the seeds and labels the sweep built are not checked again per run.

Wall-clock timings are only recorded when explicitly requested, because
they would break byte-reproducibility of the output; without the request
the wall_ms column is 0.  With it a row reads its run's own generation
time plus an equal share of its batch's clustering and scoring, at least
1 ms, and the column adds up to about the sweep's wall time.
Every solve gets the config's sweep budget, ``max_iters`` (default
:data:`tvclust.solver.MAX_ITERS`).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from tvclust.clustering import _accuracies, _cluster_many, accuracy, cluster
from tvclust.graphs import checked_float, checked_int
from tvclust.sbm import SbmParams, _draw, _Layout, generate_instance
from tvclust.solver import _ROW_EDGES, MAX_ITERS, _checked_max_iters


class SweepConfigError(ValueError):
    """A SweepConfig field with an invalid value."""


@dataclass(frozen=True)
class SweepConfig:
    cluster_sizes: tuple[int, ...]
    p_out: float
    p_in_grid: tuple[float, ...]
    s_values: tuple[int, ...]
    reps: int
    rng_seed: int
    max_iters: int = MAX_ITERS

    def __post_init__(self):
        """Check every field, naming it; the integer fields are stored as
        ints, the probabilities as floats and the sequences as tuples."""
        max_iters = _checked_max_iters(self.max_iters)

        def ints(name):
            values = getattr(self, name)
            if len(values) == 0:
                raise SweepConfigError(f"{name} is empty")
            return tuple(checked_int(v, SweepConfigError, name) for v in values)

        sizes, s_values = ints("cluster_sizes"), ints("s_values")
        reps = checked_int(self.reps, SweepConfigError, "reps")
        rng_seed = checked_int(self.rng_seed, SweepConfigError, "rng_seed")
        p_out = checked_float(self.p_out, SweepConfigError, "p_out")
        p_in_grid = tuple(
            checked_float(p, SweepConfigError, "p_in_grid") for p in self.p_in_grid
        )
        if not p_in_grid:
            raise SweepConfigError("p_in_grid is empty")
        if reps < 1:
            raise SweepConfigError(f"reps={reps} must be >= 1")
        if rng_seed < 0:
            raise SweepConfigError(f"rng_seed={rng_seed} must be >= 0")
        for p in (*p_in_grid, p_out):
            if not 0.0 <= p <= 1.0:
                raise SweepConfigError(f"probability {p} outside [0, 1]")
        if min(sizes) < 1:
            raise SweepConfigError(f"cluster_sizes {sizes} must all be >= 1")
        for s in s_values:
            if not 1 <= s <= min(sizes):
                raise SweepConfigError(
                    f"s_values entry {s} outside 1..{min(sizes)} (smallest cluster)"
                )
        for name, value in (("cluster_sizes", sizes), ("p_out", p_out),
                            ("p_in_grid", p_in_grid), ("s_values", s_values),
                            ("reps", reps), ("rng_seed", rng_seed),
                            ("max_iters", max_iters)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SweepRow:
    s: int
    p_in: float
    p_out: float
    ratio: float  # s * p_in / p_out
    rep: int
    instance_seed: int
    accuracy: float
    iters: int  # largest per-cluster solve iteration count of the run
    wall_ms: int


@dataclass(frozen=True)
class AggregateRow:
    s: int
    ratio: float
    mean_accuracy: float
    std_accuracy: float  # population standard deviation over reps
    reps: int


SWEEP_CSV_COLUMNS = (
    "s", "p_in", "p_out", "ratio", "rep", "instance_seed",
    "accuracy", "iters", "wall_ms",
)
AGGREGATE_CSV_COLUMNS = ("s", "ratio", "mean_accuracy", "std_accuracy", "reps")


def derive_instance_seed(master_seed: int, grid_i: int, s_i: int, rep: int) -> int:
    seq = np.random.SeedSequence(master_seed, spawn_key=(grid_i, s_i, rep))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _row(config, key, instance_seed, acc, iters, seconds, measure_time) -> SweepRow:
    """The row of run key = (grid_i, s_i, rep), which took `seconds`."""
    grid_i, s_i, rep = key
    p_in = config.p_in_grid[grid_i]
    s = config.s_values[s_i]
    ratio = s * p_in / config.p_out if config.p_out > 0 else float("inf")
    return SweepRow(
        s=s,
        p_in=p_in,
        p_out=config.p_out,
        ratio=ratio,
        rep=rep,
        instance_seed=instance_seed,
        accuracy=acc,
        iters=iters,
        # a timed run reads at least 1 ms, so it never looks untimed
        wall_ms=max(1, round(1000 * seconds)) if measure_time else 0,
    )


def run_one(
    config: SweepConfig, grid_i: int, s_i: int, rep: int, measure_time: bool = False
) -> SweepRow:
    """One run on its own: generate, cluster and score.  run_sweep gives
    the same row, the solve aside, which it batches with other runs'."""
    start = time.perf_counter()
    instance_seed = derive_instance_seed(config.rng_seed, grid_i, s_i, rep)
    params = SbmParams(config.cluster_sizes, config.p_in_grid[grid_i], config.p_out)
    instance = generate_instance(params, config.s_values[s_i], instance_seed)
    result = cluster(instance.graph, instance.seeds.labels(), config.max_iters)
    acc = accuracy(result, instance.truth, instance.seeds)
    seconds = time.perf_counter() - start
    return _row(config, (grid_i, s_i, rep), instance_seed, acc,
                max(d.iters for d in result.diagnostics), seconds, measure_time)


def run_sweep(
    config: SweepConfig, num_threads: int = 1, measure_time: bool = False
) -> list[SweepRow]:
    """All reps x grid x s runs, returned in (grid, s, rep) order.

    The block model's layout is built once per sweep and its parameters
    once per grid point; every run is drawn through them on its own
    streams, one at a time, and queued.  The queue is clustered and scored
    as one batch whenever the next run's target edges (K times its edges)
    would take it past the solver's _ROW_EDGES, and after the last run, so
    a sweep holds at most one group of the solver's buffers, however many
    runs it has.
    """
    # num_threads stays only for perfbench's positional run_sweep(config, 1, True)
    if num_threads != 1:
        raise SweepConfigError(f"num_threads={num_threads!r}: sweeps run on one thread")
    layout = _Layout(config.cluster_sizes)
    rows, queue, queued = [], [], 0
    for gi, p_in in enumerate(config.p_in_grid):
        params = SbmParams(config.cluster_sizes, p_in, config.p_out)
        for si, s in enumerate(config.s_values):
            for rep in range(config.reps):
                start = time.perf_counter()
                instance_seed = derive_instance_seed(config.rng_seed, gi, si, rep)
                instance = _draw(layout, params, s, instance_seed)
                seconds = time.perf_counter() - start
                edges = len(config.cluster_sizes) * instance.graph.num_edges
                if queue and queued + edges > _ROW_EDGES:
                    rows += _scored(config, layout.truth, queue, measure_time)
                    queue, queued = [], 0
                queue.append(((gi, si, rep), instance_seed, instance, seconds))
                queued += edges
    return rows + _scored(config, layout.truth, queue, measure_time)


def _scored(config, truth, queue, measure_time) -> list[SweepRow]:
    """The rows of the queued runs, all drawn on the partition `truth`,
    clustered and scored as one batch.  A row's time is its run's
    generation time plus an equal share of the batch's clustering and
    scoring."""
    start = time.perf_counter()
    nodes = [instance.seeds.all_nodes for _, _, instance, _ in queue]
    # the seed groups of contiguous clusters list their ids in ascending order
    ids = np.array([i for run in nodes for i in run])
    counts = [len(run) for run in nodes]
    labels = truth.assignment[ids]
    runs, end = [], 0
    for (_, _, instance, _), count in zip(queue, counts):
        runs.append((instance.graph, ids[end:end + count], labels[end:end + count]))
        end += count
    results = _cluster_many(runs, config.max_iters)
    accs = _accuracies(np.stack([r.assignment for r in results]), truth, ids, counts)
    share = (time.perf_counter() - start) / len(queue)
    return [
        _row(config, key, instance_seed, acc, max(d.iters for d in result.diagnostics),
             seconds + share, measure_time)
        for (key, instance_seed, _, seconds), acc, result
        in zip(queue, accs.tolist(), results)
    ]


def aggregate_rows(config: SweepConfig, rows: list[SweepRow]) -> list[AggregateRow]:
    """Mean/std accuracy over reps for each (grid point, s), in sweep order.

    `rows` come in run_sweep's order, one block of config.reps rows per
    (grid point, s); two grid points with equal (s, ratio) stay apart.
    """
    out = []
    for lo in range(0, len(rows), config.reps):
        block = rows[lo:lo + config.reps]
        accs = np.asarray([row.accuracy for row in block])
        out.append(AggregateRow(
            block[0].s, block[0].ratio, float(accs.mean()), float(accs.std()), accs.size
        ))
    return out


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for r in rows:
            writer.writerow(
                [
                    r.s, repr(r.p_in), repr(r.p_out), repr(r.ratio), r.rep,
                    r.instance_seed, repr(r.accuracy), r.iters, r.wall_ms,
                ]
            )


def write_aggregate_csv(path, rows: list[AggregateRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_CSV_COLUMNS)
        for r in rows:
            writer.writerow(
                [r.s, repr(r.ratio), repr(r.mean_accuracy), repr(r.std_accuracy), r.reps]
            )


def write_gnuplot_script(path, aggregate_csv_path) -> None:
    """Companion script plotting mean accuracy against the seed-scaled ratio.

    The aggregate path is quoted for the shell that gnuplot's system() runs
    (in single quotes, inside a gnuplot double-quoted string) and for
    gnuplot as the data file (in single quotes, where '' is one quote), so
    a path with spaces or quotes still names one file.
    """
    name = str(aggregate_csv_path)
    word = "'" + name.replace("'", "'\"'\"'") + "'"
    command = f"awk -F, 'NR>1 {{print $1}}' {word} | sort -nu"
    command = command.replace("\\", "\\\\").replace('"', '\\"')
    data = name.replace("'", "''")
    script = (
        "set datafile separator ','\n"
        "set key autotitle columnheader\n"
        "set xlabel 'S * p_in / p_out'\n"
        "set ylabel 'accuracy'\n"
        "set yrange [0.45:1.05]\n"
        f'plot for [s in system("{command}")] \\\n'
        f"    '{data}' using 2:($1 == s ? $3 : 1/0) \\\n"
        "    with linespoints title sprintf('S = %s', s)\n"
    )
    with open(path, "w") as fh:
        fh.write(script)
