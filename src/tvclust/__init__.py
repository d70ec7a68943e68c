"""tvclust: semi-supervised graph clustering by total-variation minimization.

Recovers cluster assignments on partially labeled stochastic block models
by solving one TV-minimization problem per cluster with a primal-dual
message-passing solver, decoding by argmax, and certifying recovery with
exact min-cut oracles, max-flow well-connectedness checks and spectral
bounds.  The namespace holds the entry points; result types and helpers
are imported from their modules (``tvclust.sbm.SbmInstance``, ...).
"""

from tvclust.analysis import (
    algebraic_connectivity,
    analyze_instance,
    mincut_tv_oracle,
    recovery_condition_report,
    subset_cut_check,
    well_connected,
)
from tvclust.clustering import accuracy, cluster, write_result_csv
from tvclust.graphs import (
    Graph,
    Partition,
    build_graph,
    contiguous_partition,
    laplacian,
    total_variation,
)
from tvclust.sbm import SbmParams, generate_instance, read_instance, write_instance
from tvclust.solver import SolverConfig, solve
from tvclust.sweep import SweepConfig, aggregate_rows, run_sweep

__all__ = [
    "Graph",
    "Partition",
    "SbmParams",
    "SolverConfig",
    "SweepConfig",
    "accuracy",
    "aggregate_rows",
    "algebraic_connectivity",
    "analyze_instance",
    "build_graph",
    "cluster",
    "contiguous_partition",
    "generate_instance",
    "laplacian",
    "mincut_tv_oracle",
    "read_instance",
    "recovery_condition_report",
    "run_sweep",
    "solve",
    "subset_cut_check",
    "total_variation",
    "well_connected",
    "write_instance",
    "write_result_csv",
]

__version__ = "0.1.0"
