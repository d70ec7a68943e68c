"""Monte Carlo accuracy sweeps over block-model parameter grids.

Every run (one generated instance, one clustering, one accuracy figure)
has its own RNG stream derived from the master seed through the spawn key
(grid index, s index, rep index), so adding grid points or reordering the
schedule never changes any existing row.  Rows are computed one at a time,
in (grid, s, rep) order.

Wall-clock timings are only recorded when explicitly requested, because
they would break byte-reproducibility of the output; without the request
the wall_ms column is 0, and with it every run reads at least 1 ms.
Every solve gets the config's sweep budget, ``max_iters`` (default
:data:`tvclust.solver.MAX_ITERS`).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from tvclust.clustering import accuracy, cluster
from tvclust.graphs import checked_int
from tvclust.sbm import SbmParams, generate_instance
from tvclust.solver import MAX_ITERS, _checked_max_iters


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
        """Check every field, naming it; the integer fields are stored as ints."""
        max_iters = _checked_max_iters(self.max_iters)

        def ints(name):
            values = getattr(self, name)
            if len(values) == 0:
                raise SweepConfigError(f"{name} is empty")
            return tuple(checked_int(v, SweepConfigError, name) for v in values)

        sizes, s_values = ints("cluster_sizes"), ints("s_values")
        reps = checked_int(self.reps, SweepConfigError, "reps")
        rng_seed = checked_int(self.rng_seed, SweepConfigError, "rng_seed")
        if not self.p_in_grid:
            raise SweepConfigError("p_in_grid is empty")
        if reps < 1:
            raise SweepConfigError(f"reps={reps} must be >= 1")
        if rng_seed < 0:
            raise SweepConfigError(f"rng_seed={rng_seed} must be >= 0")
        for p in (*self.p_in_grid, self.p_out):
            if not 0.0 <= p <= 1.0:
                raise SweepConfigError(f"probability {p} outside [0, 1]")
        if min(sizes) < 1:
            raise SweepConfigError(f"cluster_sizes {sizes} must all be >= 1")
        for s in s_values:
            if not 1 <= s <= min(sizes):
                raise SweepConfigError(
                    f"s_values entry {s} outside 1..{min(sizes)} (smallest cluster)"
                )
        for name, value in (("cluster_sizes", sizes), ("s_values", s_values),
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


def run_one(
    config: SweepConfig, grid_i: int, s_i: int, rep: int, measure_time: bool = False
) -> SweepRow:
    p_in = config.p_in_grid[grid_i]
    s = config.s_values[s_i]
    instance_seed = derive_instance_seed(config.rng_seed, grid_i, s_i, rep)
    start = time.perf_counter()
    instance = generate_instance(
        SbmParams(config.cluster_sizes, p_in, config.p_out), s, instance_seed
    )
    result = cluster(instance.graph, instance.seeds.labels(), config.max_iters)
    acc = accuracy(result, instance.truth, instance.seeds)
    # a timed run reads at least 1 ms, so it never looks untimed
    wall_ms = max(1, round(1000 * (time.perf_counter() - start))) if measure_time else 0
    ratio = s * p_in / config.p_out if config.p_out > 0 else float("inf")
    return SweepRow(
        s=s,
        p_in=p_in,
        p_out=config.p_out,
        ratio=ratio,
        rep=rep,
        instance_seed=instance_seed,
        accuracy=acc,
        iters=max(d.iters for d in result.diagnostics),
        wall_ms=wall_ms,
    )


def run_sweep(
    config: SweepConfig, num_threads: int = 1, measure_time: bool = False
) -> list[SweepRow]:
    """All reps x grid x s runs, computed and returned in (grid, s, rep) order."""
    # num_threads stays only for perfbench's positional run_sweep(config, 1, True)
    if num_threads != 1:
        raise SweepConfigError(f"num_threads={num_threads!r}: sweeps run on one thread")
    return [
        run_one(config, gi, si, rep, measure_time)
        for gi in range(len(config.p_in_grid))
        for si in range(len(config.s_values))
        for rep in range(config.reps)
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
    """Companion script plotting mean accuracy against the seed-scaled ratio."""
    script = (
        "set datafile separator ','\n"
        "set key autotitle columnheader\n"
        "set xlabel 'S * p_in / p_out'\n"
        "set ylabel 'accuracy'\n"
        "set yrange [0.45:1.05]\n"
        f"plot for [s in system(\"awk -F, 'NR>1 {{print $1}}' {aggregate_csv_path}"
        " | sort -nu\")] \\\n"
        f"    '{aggregate_csv_path}' using 2:($1 == s ? $3 : 1/0) \\\n"
        "    with linespoints title sprintf('S = %s', s)\n"
    )
    with open(path, "w") as fh:
        fh.write(script)
