"""Command-line front end: generate, cluster, sweep, analyze.

Every option without a default of its own can also be supplied through a
key=value config file (--config); explicit flags win over file values, and
a key the subcommand does not read is a usage error.  All randomness flows
from --rng-seed, so any command rerun with the same arguments produces
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
    SbmParams,
    generate_instance,
    permute_instance,
    read_instance,
    write_instance,
)
from tvclust.solver import SolverConfig
from tvclust.sweep import (
    SweepConfig,
    aggregate_rows,
    run_sweep,
    write_aggregate_csv,
    write_gnuplot_script,
    write_sweep_csv,
)


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
            raise CliUsageError(f"grid range needs finite numbers in {text!r}")
        if step <= 0:
            raise CliUsageError(f"grid step must be positive in {text!r}")
        values = []
        k = 0
        while True:
            v = start + k * step
            if v > stop + 1e-12:
                break
            values.append(round(v, 12))
            k += 1
        return tuple(values)
    return tuple(float(x) for x in text.split(","))


def _merged(args: argparse.Namespace, key: str, default=None):
    """CLI value if given, else config-file value, else default."""
    value = getattr(args, key, None)
    return value if value is not None else args.config_values.get(key, default)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _convert(name: str, value, convert):
    """Convert a flag or config-file string named `name`; a value that
    `convert` rejects is a usage error."""
    if not isinstance(value, str):
        return value
    try:
        return convert(value)
    except ValueError as exc:
        raise CliUsageError(f"bad value {value!r} for {name}: {exc}") from None


def _value(args, key, convert, default=None):
    """Converted CLI or config-file value, else the default."""
    return _convert(_flag(key), _merged(args, key, default), convert)


def _require(args, key, convert):
    value = _merged(args, key)
    if value is None:
        raise CliUsageError(f"missing required option {_flag(key)}")
    return _convert(_flag(key), value, convert)


def _resolve_sizes(args) -> tuple[int, ...]:
    sizes = _value(args, "sizes", _parse_ints)
    n = _value(args, "nodes", int)
    if sizes is not None:
        return sizes
    if n is not None:
        if n % 2:
            raise CliUsageError("--nodes requires an even count (two equal clusters)")
        return (n // 2, n // 2)
    raise CliUsageError("give --sizes n1,n2,... or --nodes N")


def _solver_config(args) -> SolverConfig:
    """SolverConfig from --max-iters if given, else SolverConfig's default."""
    max_iters = _value(args, "max_iters", int)
    return SolverConfig() if max_iters is None else SolverConfig(max_iters)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value file; flags override its entries")


def _add_model_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sizes", help="cluster sizes, e.g. 50,50")
    p.add_argument("--nodes", help="total nodes, split into two equal clusters")
    p.add_argument("--p-in", dest="p_in", help="intra-cluster edge probability")
    p.add_argument("--p-out", dest="p_out", help="cross-cluster edge probability")
    p.add_argument("--num-seeds", dest="num_seeds", help="labeled nodes per cluster")
    p.add_argument("--rng-seed", dest="rng_seed", help="64-bit master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvclust",
        description="Semi-supervised clustering by TV minimization on "
        "partially labeled block models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="draw an instance and write it out")
    _add_common(p_gen)
    _add_model_options(p_gen)
    p_gen.add_argument("--permute", action="store_true",
                       help="relabel nodes by a random permutation")
    p_gen.add_argument("--out", help="output directory for the instance files")

    p_clu = sub.add_parser("cluster", help="recover cluster assignments")
    _add_common(p_clu)
    p_clu.add_argument("--instance", help="instance directory to load")
    _add_model_options(p_clu)
    p_clu.add_argument("--max-iters", dest="max_iters", help="solver sweep budget")
    p_clu.add_argument("--out", help="per-node result CSV path")

    p_swp = sub.add_parser("sweep", help="Monte Carlo accuracy sweep")
    _add_common(p_swp)
    p_swp.add_argument("--sizes", help="cluster sizes, e.g. 50,50")
    p_swp.add_argument("--nodes", help="total nodes, two equal clusters")
    p_swp.add_argument("--p-out", dest="p_out", help="fixed cross probability")
    p_swp.add_argument(
        "--p-in-grid", dest="p_in_grid",
        help="comma list or start:stop:step range of intra probabilities",
    )
    p_swp.add_argument("--num-seeds", dest="num_seeds",
                       help="comma list of labeled-nodes-per-cluster values")
    p_swp.add_argument("--reps", help="repetitions per grid point")
    p_swp.add_argument("--rng-seed", dest="rng_seed", help="64-bit master seed")
    p_swp.add_argument("--max-iters", dest="max_iters", help="solver sweep budget")
    p_swp.add_argument("--out", help="per-run sweep CSV path")
    p_swp.add_argument("--aggregate-out", dest="aggregate_out",
                       help="aggregate CSV path (default: <out> with _agg suffix)")
    p_swp.add_argument("--gnuplot-out", dest="gnuplot_out",
                       help="also write a gnuplot script for the aggregate CSV")
    p_swp.add_argument(
        "--timing", action="store_true",
        help="record real wall_ms per run (breaks byte-reproducibility)",
    )

    p_ana = sub.add_parser("analyze", help="recovery-condition report")
    _add_common(p_ana)
    p_ana.add_argument("--instance", help="instance directory to load")
    p_ana.add_argument("--alpha", help="boundary concentration constant (default 0.1)")
    p_ana.add_argument("--beta", help="condition constant (default 1e-3)")
    p_ana.add_argument("--format", choices=("csv", "text"), default="csv")
    p_ana.add_argument("--out", help="report path (default: stdout for text)")
    return parser


def cmd_generate(args) -> int:
    sizes = _resolve_sizes(args)
    params = SbmParams(sizes, _require(args, "p_in", float),
                       _require(args, "p_out", float))
    rng_seed = _require(args, "rng_seed", int)
    s = _require(args, "num_seeds", int)
    out = _require(args, "out", str)
    instance = generate_instance(params, s, rng_seed)
    if args.permute:
        instance = permute_instance(instance, rng_seed)
    write_instance(instance, out)
    print(
        f"wrote instance: n={params.num_nodes} edges={instance.graph.num_edges} "
        f"seeds_per_cluster={s} -> {out}"
    )
    return 0


def cmd_cluster(args) -> int:
    if _merged(args, "instance") is not None:
        instance = read_instance(_merged(args, "instance"))
    else:
        sizes = _resolve_sizes(args)
        params = SbmParams(sizes, _require(args, "p_in", float),
                           _require(args, "p_out", float))
        instance = generate_instance(
            params, _require(args, "num_seeds", int), _require(args, "rng_seed", int)
        )
    result = cluster(instance.graph, instance.seeds.labels(), _solver_config(args))
    acc = accuracy(result, instance.truth, instance.seeds)
    out = _merged(args, "out")
    if out:
        write_result_csv(out, result, instance.truth, instance.seeds)
    unlabeled = instance.graph.num_nodes - len(instance.seeds.all_nodes)
    reasons = ",".join(sorted({d.stop_reason for d in result.diagnostics}))
    print(f"accuracy={acc!r} unlabeled={unlabeled} "
          f"iters={max(d.iters for d in result.diagnostics)} "
          f"gap={max(d.gap for d in result.diagnostics)!r} stop_reason={reasons}")
    return 0


def cmd_sweep(args) -> int:
    config = SweepConfig(
        cluster_sizes=_resolve_sizes(args),
        p_out=_require(args, "p_out", float),
        p_in_grid=_require(args, "p_in_grid", _parse_probability_grid),
        s_values=_require(args, "num_seeds", _parse_ints),
        reps=_require(args, "reps", int),
        rng_seed=_require(args, "rng_seed", int),
        solver=_solver_config(args),
    )
    out = _require(args, "out", str)
    started = time.perf_counter()
    rows = run_sweep(config, measure_time=args.timing)
    elapsed = time.perf_counter() - started
    write_sweep_csv(out, rows)
    agg = aggregate_rows(config, rows)
    agg_out = _merged(args, "aggregate_out")
    if agg_out is None:
        base = Path(out)
        agg_out = base.with_name(base.stem + "_agg" + base.suffix)
    write_aggregate_csv(agg_out, agg)
    if _merged(args, "gnuplot_out"):
        write_gnuplot_script(_merged(args, "gnuplot_out"), agg_out)
    print(
        f"sweep: {len(rows)} runs in {elapsed:.1f}s -> {out}, {agg_out}",
        file=sys.stderr,
    )
    return 0


def cmd_analyze(args) -> int:
    instance = read_instance(_require(args, "instance", str))
    report = analyze_instance(
        instance,
        alpha=_value(args, "alpha", float, 0.1),
        beta=_value(args, "beta", float, 1e-3),
    )
    out = _merged(args, "out")
    if args.format == "text":
        text = format_analysis_text(report)
        if out:
            Path(out).write_text(text)
        else:
            print(text, end="")
    else:
        if out is None:
            raise CliUsageError("csv format needs --out PATH")
        write_analysis_csv(out, report)
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "cluster": cmd_cluster,
    "sweep": cmd_sweep,
    "analyze": cmd_analyze,
}


def _check_config_keys(parser: argparse.ArgumentParser, args) -> None:
    """A config-file key must name an option of the subcommand without a
    default of its own (flags and --format never read the file)."""
    defaults = vars(parser.parse_args([args.command]))
    unread = [key for key in args.config_values
              if key == "config" or defaults.get(key, "") is not None]
    if unread:
        raise CliUsageError(
            f"config key(s) not read by {args.command}: {', '.join(unread)}"
        )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        path = getattr(args, "config", None)
        file_values = read_key_values(path, CliUsageError) if path else {}
        args.config_values = {k.replace("-", "_"): v for k, v in file_values.items()}
        _check_config_keys(parser, args)
        return COMMANDS[args.command](args)
    except Exception as exc:  # named errors surface in the exit message
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, CliUsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
