"""Run one tvclust benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
Each workload runs in its own single-threaded process (workloads.py).
With --trace 0 the last line holds the end-to-end metrics; set-up time is
the median over several processes that each stop at the first timed
operation, plus the measured run itself.  With --trace 1 a single traced
process reports the per-layer metrics and writes its spans to
perfbench/out/trace-<workload>-seed<N>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_ref", "cluster_large", "oracle_exact", "certify_small")
SETUP_SAMPLES = 3  # set-up processes per untraced run, the measured run included
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {"op_p50_ms": "ms", "wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("TVCLUST_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, out_dir: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", str(out_dir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--launched-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{args.workload} did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{args.workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tvclust" / "__init__.py").is_file():
        print(f"error: no tvclust sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = HERE / "out" / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_child(args, out_dir, deadline, True)["setup_s"])
        result = run_child(args, out_dir, deadline, False)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if result["failed"] == result["attempted"]:
        print(f"error: every {args.workload} op failed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = result["per_layer"]
        for note in result["missing_targets"]:
            print(f"trace: {note}")
        print(f"{args.workload} traced: {result['rounds']} rounds, "
              f"wall_s {result['wall_s']:.4f} per round")
    else:
        setups.append(result["setup_s"])
        values = {
            "op_p50_ms": result["op_p50_ms"],
            "wall_s": result["wall_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"{args.workload}: {result['rounds']} rounds, {result['attempted']} ops, "
              + ", ".join(f"{k} {v:.4f}" for k, v in values.items()))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
