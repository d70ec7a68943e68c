"""tvclust: semi-supervised graph clustering by total-variation minimization.

Recovers cluster assignments on partially labeled stochastic block models
by solving one TV-minimization problem per cluster with a primal-dual
message-passing solver, decoding by argmax, and certifying recovery with
exact min-cut oracles, max-flow well-connectedness checks and spectral
bounds.
"""

from tvclust.analysis import (
    AnalysisReport,
    algebraic_connectivity,
    analyze_instance,
    boundary_concentration_bound,
    mincut_tv_oracle,
    recovery_condition_report,
    spectral_concentration_bound,
    spectral_cut_bound_check,
    subset_cut_check,
    well_connected,
)
from tvclust.clustering import (
    ClusteringResult,
    accuracy,
    cluster,
    indicator_targets,
    write_result_csv,
)
from tvclust.graphs import (
    Graph,
    Partition,
    boundary_edge_count,
    boundary_nodes,
    build_graph,
    contiguous_partition,
    induced_subgraph,
    laplacian,
    total_variation,
)
from tvclust.sbm import (
    SbmInstance,
    SbmParams,
    SeedSet,
    generate,
    generate_instance,
    read_instance,
    select_seeds,
    write_instance,
)
from tvclust.solver import SolveDiagnostics, SolverConfig, solve
from tvclust.sweep import SweepConfig, SweepRow, aggregate_rows, run_sweep

__all__ = [
    "AnalysisReport",
    "ClusteringResult",
    "Graph",
    "Partition",
    "SbmInstance",
    "SbmParams",
    "SeedSet",
    "SolveDiagnostics",
    "SolverConfig",
    "SweepConfig",
    "SweepRow",
    "accuracy",
    "aggregate_rows",
    "algebraic_connectivity",
    "analyze_instance",
    "boundary_concentration_bound",
    "boundary_edge_count",
    "boundary_nodes",
    "build_graph",
    "cluster",
    "contiguous_partition",
    "generate",
    "generate_instance",
    "indicator_targets",
    "induced_subgraph",
    "laplacian",
    "mincut_tv_oracle",
    "read_instance",
    "recovery_condition_report",
    "run_sweep",
    "select_seeds",
    "solve",
    "spectral_concentration_bound",
    "spectral_cut_bound_check",
    "subset_cut_check",
    "total_variation",
    "well_connected",
    "write_instance",
    "write_result_csv",
]

__version__ = "0.1.0"
