"""Command-line front end: generate, cluster, sweep, analyze.

Every option without a default of its own can also be supplied through a
key=value config file (--config).  argparse converts a file value exactly
as it converts the flag, explicit flags win over file values, and a key
the subcommand does not read is a usage error.  An option given neither
way leaves the library's own default in force.  All randomness flows from
--rng-seed, so any command rerun with the same arguments produces
byte-identical output files.

Exit status: 0 on success, 2 on usage errors, 1 on named runtime errors
(printed as `error: <ErrorClass>: <message>`).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from tvclust.analysis import analyze_instance, format_analysis_text, write_analysis_csv
from tvclust.clustering import accuracy, cluster, write_result_csv
from tvclust.graphs import read_key_values
from tvclust.sbm import (
    SbmInstance,
    SbmParams,
    generate_instance,
    permute_instance,
    read_instance,
    write_instance,
)
from tvclust.sweep import (
    SweepConfig,
    aggregate_rows,
    run_sweep,
    write_aggregate_csv,
    write_gnuplot_script,
    write_sweep_csv,
)


# Points a --p-in-grid start:stop:step range may make
GRID_MAX_POINTS = 100_000


class CliUsageError(ValueError):
    """Inconsistent or missing command-line arguments."""


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _parse_probability_grid(text: str) -> tuple[float, ...]:
    """Comma list (`0.1,0.2`) or inclusive range `start:stop:step`."""
    if ":" in text:
        start, stop, step = (float(x) for x in text.split(":"))
        if not all(math.isfinite(x) for x in (start, stop, step)):
            # a NaN or infinite bound or step would never end the range
            raise argparse.ArgumentTypeError(
                f"grid range needs finite numbers in {text!r}"
            )
        if step <= 0:
            raise argparse.ArgumentTypeError(f"grid step must be positive in {text!r}")
        limit = stop + 1e-12
        # a float estimate of the count refuses a huge range before any
        # point is made; the loop itself refuses a count that the
        # estimate's rounding lets through
        span = (limit - start) / step
        if span >= GRID_MAX_POINTS:
            raise argparse.ArgumentTypeError(
                f"grid range {text!r} makes about {span + 1:.0f} points, "
                f"more than {GRID_MAX_POINTS}"
            )
        values = []
        k = 0
        while True:
            v = start + k * step
            if v > limit:
                break
            if k == GRID_MAX_POINTS:
                raise argparse.ArgumentTypeError(
                    f"grid range {text!r} makes more than {GRID_MAX_POINTS} points"
                )
            values.append(round(v, 12))
            k += 1
        return tuple(values)
    return tuple(float(x) for x in text.split(","))


class _Parser(argparse.ArgumentParser):
    """Raises CliUsageError where argparse would print usage and exit."""

    def error(self, message):
        raise CliUsageError(message)


class _CommandParser(_Parser):
    """A subcommand's parser.  The key=value lines of its --config file
    become its defaults, which argparse converts like flags, and the
    arguments are parsed again, so flags win over the file."""

    def parse_known_args(self, args=None, namespace=None):
        parsed, rest = super().parse_known_args(args, namespace)
        if parsed.config is None:
            return parsed, rest
        values = {key.replace("-", "_"): value for key, value
                  in read_key_values(parsed.config, CliUsageError).items()}
        # only an option without a default of its own reads the file
        unread = [key for key in values if key == "config"
                  or key not in vars(parsed) or self.get_default(key) is not None]
        if unread:
            raise CliUsageError(
                f"config key(s) not read by {self.prog}: {', '.join(unread)}"
            )
        self.set_defaults(**values)
        return super().parse_known_args(args, namespace)


def _given(args, *keys) -> dict:
    """The options among `keys` given by flag or by --config; the library's
    own defaults stand for the rest."""
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _require(args, key: str):
    value = getattr(args, key)
    if value is None:
        raise CliUsageError(f"missing required option --{key.replace('_', '-')}")
    return value


def _resolve_sizes(args) -> tuple[int, ...]:
    if args.sizes is not None:
        return args.sizes
    if args.nodes is not None:
        if args.nodes % 2:
            raise CliUsageError("--nodes requires an even count (two equal clusters)")
        return (args.nodes // 2, args.nodes // 2)
    raise CliUsageError("give --sizes n1,n2,... or --nodes N")


def _draw_instance(args) -> SbmInstance:
    """The instance the model options describe."""
    params = SbmParams(_resolve_sizes(args), _require(args, "p_in"),
                       _require(args, "p_out"))
    return generate_instance(
        params, _require(args, "num_seeds"), _require(args, "rng_seed")
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tvclust",
        description="Semi-supervised clustering by TV minimization on "
        "partially labeled block models",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)
    # option groups shared by several subcommands, each declared once
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="key=value file; flags override its entries")
    shape = argparse.ArgumentParser(add_help=False, parents=[config])
    shape.add_argument("--sizes", type=_parse_ints, help="cluster sizes, e.g. 50,50")
    shape.add_argument("--nodes", type=int,
                       help="total nodes, split into two equal clusters")
    shape.add_argument("--p-out", type=float, help="cross-cluster edge probability")
    shape.add_argument("--rng-seed", type=int, help="64-bit master seed")
    model = argparse.ArgumentParser(add_help=False, parents=[shape])
    model.add_argument("--p-in", type=float, help="intra-cluster edge probability")
    model.add_argument("--num-seeds", type=int, help="labeled nodes per cluster")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--max-iters", type=int, help="solver sweep budget")

    p_gen = sub.add_parser("generate", parents=[model],
                           help="draw an instance and write it out")
    p_gen.add_argument("--permute", action="store_true",
                       help="relabel nodes by a random permutation")
    p_gen.add_argument("--out", help="output directory for the instance files")

    p_clu = sub.add_parser("cluster", parents=[model, solver],
                           help="recover cluster assignments")
    p_clu.add_argument("--instance", help="instance directory to load")
    p_clu.add_argument("--out", help="per-node result CSV path")

    p_swp = sub.add_parser("sweep", parents=[shape, solver],
                           help="Monte Carlo accuracy sweep")
    p_swp.add_argument(
        "--p-in-grid", type=_parse_probability_grid,
        help="comma list or start:stop:step range of intra probabilities "
             f"(a range makes at most {GRID_MAX_POINTS} points)",
    )
    p_swp.add_argument("--num-seeds", type=_parse_ints,
                       help="comma list of labeled-nodes-per-cluster values")
    p_swp.add_argument("--reps", type=int, help="repetitions per grid point")
    p_swp.add_argument("--out", help="per-run sweep CSV path")
    p_swp.add_argument("--aggregate-out",
                       help="aggregate CSV path (default: <out> with _agg suffix)")
    p_swp.add_argument("--gnuplot-out",
                       help="also write a gnuplot script for the aggregate CSV")
    p_swp.add_argument(
        "--timing", action="store_true",
        help="record real wall_ms per run (breaks byte-reproducibility)",
    )

    p_ana = sub.add_parser("analyze", parents=[config],
                           help="recovery-condition report")
    p_ana.add_argument("--instance", help="instance directory to load")
    p_ana.add_argument("--alpha", type=float, help="boundary concentration constant")
    p_ana.add_argument("--beta", type=float, help="condition constant")
    p_ana.add_argument("--format", choices=("csv", "text"), default="csv")
    p_ana.add_argument("--out", help="report path (default: stdout for text)")
    return parser


def cmd_generate(args) -> int:
    out = _require(args, "out")
    instance = _draw_instance(args)
    if args.permute:
        instance = permute_instance(instance, instance.rng_seed)
    write_instance(instance, out)
    print(
        f"wrote instance: n={instance.params.num_nodes} "
        f"edges={instance.graph.num_edges} "
        f"seeds_per_cluster={args.num_seeds} -> {out}"
    )
    return 0


def cmd_cluster(args) -> int:
    if args.instance is None:
        instance = _draw_instance(args)
    else:
        model = _given(args, "sizes", "nodes", "p_in", "p_out", "num_seeds", "rng_seed")
        if model:
            flags = ", ".join("--" + key.replace("_", "-") for key in model)
            raise CliUsageError(
                f"--instance reads the model from its files; do not also give {flags}"
            )
        instance = read_instance(args.instance)
    labels = instance.seeds.labels()
    result = cluster(instance.graph, labels, **_given(args, "max_iters"))
    acc = accuracy(result, instance.truth, instance.seeds)
    if args.out:
        write_result_csv(args.out, result, instance.truth, instance.seeds)
    unlabeled = instance.graph.num_nodes - len(instance.seeds.all_nodes)
    reasons = ",".join(sorted({d.stop_reason for d in result.diagnostics}))
    print(f"accuracy={acc!r} unlabeled={unlabeled} "
          f"iters={max(d.iters for d in result.diagnostics)} "
          f"gap={max(d.gap for d in result.diagnostics)!r} stop_reason={reasons}")
    return 0


def cmd_sweep(args) -> int:
    config = SweepConfig(
        cluster_sizes=_resolve_sizes(args),
        p_out=_require(args, "p_out"),
        p_in_grid=_require(args, "p_in_grid"),
        s_values=_require(args, "num_seeds"),
        reps=_require(args, "reps"),
        rng_seed=_require(args, "rng_seed"),
        **_given(args, "max_iters"),
    )
    out = _require(args, "out")
    started = time.perf_counter()
    rows = run_sweep(config, measure_time=args.timing)
    elapsed = time.perf_counter() - started
    write_sweep_csv(out, rows)
    agg = aggregate_rows(config, rows)
    agg_out = args.aggregate_out
    if agg_out is None:
        base = Path(out)
        agg_out = base.with_name(base.stem + "_agg" + base.suffix)
    write_aggregate_csv(agg_out, agg)
    if args.gnuplot_out:
        write_gnuplot_script(args.gnuplot_out, agg_out)
    print(
        f"sweep: {len(rows)} runs in {elapsed:.1f}s -> {out}, {agg_out}",
        file=sys.stderr,
    )
    return 0


def cmd_analyze(args) -> int:
    instance = read_instance(_require(args, "instance"))
    report = analyze_instance(instance, **_given(args, "alpha", "beta"))
    if args.format == "text":
        text = format_analysis_text(report)
        if args.out:
            Path(args.out).write_text(text)
        else:
            print(text, end="")
    else:
        if args.out is None:
            raise CliUsageError("csv format needs --out PATH")
        write_analysis_csv(args.out, report)
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "cluster": cmd_cluster,
    "sweep": cmd_sweep,
    "analyze": cmd_analyze,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except Exception as exc:  # named errors surface in the exit message
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, CliUsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
