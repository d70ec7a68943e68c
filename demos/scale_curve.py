"""Scaling curve: time and memory per layer from N = 10^3 to 10^5 nodes.

For each N, a fresh process draws a K=4 block model with average degree
about 20, builds the graph again from its edge array, clusters it with
S = 50 labeled nodes per cluster, and checks each cluster's solve against
the exact min-cut oracle.  p_out = p_in / N keeps the expected number of
cross-cluster edges near 30 at every N, far below the ~20 S edges that cut
off a cluster's seeds, so exact recovery is expected throughout (with a
fixed p_out / p_in the cross edges grow with N and, at N = 10^5, cutting
off the seeds becomes cheaper than cutting out the cluster).

It records the seconds spent in `generate` (the chunked pair draw,
including its own `build_graph`), in one more `build_graph` from the same
edges, in `cluster` and in the K oracle cuts; the solver's largest sweep
count, its converged solves and its largest relative TV gap to the exact
optimum; accuracy; the peak resident set of the process (`ru_maxrss`); and
bytes per edge, both of the Graph's arrays and of that peak.  The rows go
to BENCH_scale.json in the current directory.

The pair draw reads one uniform per node pair, N(N-1)/2 of them, so N = 10^5
draws 5 * 10^9 uniforms (about a minute); N = 10^6 would need 5 * 10^11 and
is left to a sampler whose cost follows the edges.

Run:  python3 demos/scale_curve.py [N ...]     (default: 1000 10000 100000)
"""

import json
import multiprocessing
import os
import platform
import resource
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from tvclust.analysis import mincut_tv_oracle
from tvclust.clustering import accuracy, cluster, indicator_targets
from tvclust.graphs import build_graph
from tvclust.sbm import SbmParams, generate, select_seeds

K = 4
AVG_DEGREE = 20.0
S = 50
RNG_SEED = 1
OUT = "BENCH_scale.json"


def block_model(n: int) -> SbmParams:
    """K equal blocks with expected degree AVG_DEGREE and p_out = p_in / n."""
    n_k = n // K
    p_in = AVG_DEGREE / ((n_k - 1) + (n - n_k) / n)
    return SbmParams((n_k,) * K, p_in, p_in / n)


def measure(n: int) -> dict:
    """One point of the curve; meant to run in its own process."""
    params = block_model(n)
    start = time.perf_counter()
    g, truth = generate(params, RNG_SEED)
    generated = time.perf_counter()
    # what a Graph keeps: the memory still allocated after the build
    tracemalloc.start()
    graph = build_graph(params.num_nodes, g.edges)
    graph_bytes = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    built = time.perf_counter()
    del g
    seeds = select_seeds(truth, S, RNG_SEED)
    labels = seeds.labels()
    result = cluster(graph, labels)
    clustered = time.perf_counter()
    optimal = [
        mincut_tv_oracle(graph, indicator_targets(labels, k)).optimal_tv
        for k in range(1, K + 1)
    ]
    checked = time.perf_counter()
    gaps = [(d.tv_final - opt) / opt for d, opt in zip(result.diagnostics, optimal)]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    edges = graph.num_edges
    return {
        "n": params.num_nodes,
        "sizes": list(params.cluster_sizes),
        "p_in": params.p_in,
        "p_out": params.p_out,
        "edges": edges,
        "avg_degree": 2 * edges / params.num_nodes,
        "generate_s": generated - start,
        "build_graph_s": built - generated,
        "cluster_s": clustered - built,
        "oracle_s": checked - clustered,
        "sweeps_max": max(d.iters for d in result.diagnostics),
        "converged": sum(d.converged for d in result.diagnostics),
        "tv_gap_rel_max": max(gaps),
        "accuracy": accuracy(result, truth, seeds),
        "peak_rss_mb": peak / 2**20,
        "graph_bytes_per_edge": graph_bytes / edges,
        "peak_rss_bytes_per_edge": peak / edges,
    }


def main(sizes) -> None:
    rows = []
    spawn = multiprocessing.get_context("spawn")
    for n in sizes:
        # a fresh process per N, so ru_maxrss is this point's own peak
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            row = pool.submit(measure, n).result()
        rows.append(row)
        print(
            f"N={row['n']:>7} E={row['edges']:>8}"
            f"  generate {row['generate_s']:6.2f} s"
            f"  build_graph {row['build_graph_s']:6.3f} s"
            f"  cluster {row['cluster_s']:7.2f} s  sweeps {row['sweeps_max']:>4}"
            f"  oracle {row['oracle_s']:5.2f} s  gap {row['tv_gap_rel_max']:.1e}"
            f"  accuracy {row['accuracy']:.4f}  peak {row['peak_rss_mb']:6.1f} MB"
            f"  graph {row['graph_bytes_per_edge']:5.1f} B/edge",
            flush=True,
        )
    machine = {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    with open(OUT, "w") as fh:
        json.dump({"machine": machine, "k": K, "s": S, "rng_seed": RNG_SEED,
                   "rows": rows}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or [1000, 10_000, 100_000])
