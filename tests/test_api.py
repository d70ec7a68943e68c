import importlib

import tvclust

PUBLIC_API = [
    "AnalysisReport", "ClusteringResult", "Graph", "Partition", "SbmInstance",
    "SbmParams", "SeedSet", "SolveDiagnostics", "SolverConfig", "SweepConfig",
    "SweepRow", "accuracy", "aggregate_rows", "algebraic_connectivity",
    "analyze_instance", "boundary_concentration_bound", "boundary_edge_count",
    "boundary_nodes", "build_graph", "cluster", "contiguous_partition",
    "generate", "generate_instance", "indicator_targets", "induced_subgraph",
    "laplacian", "mincut_tv_oracle", "read_instance",
    "recovery_condition_report", "run_sweep", "select_seeds", "solve",
    "spectral_concentration_bound", "spectral_cut_bound_check",
    "subset_cut_check", "total_variation", "well_connected", "write_instance",
    "write_result_csv",
]

# taken out of the package namespace, still importable from their modules
MODULE_ONLY = {
    "tvclust.graphs": ["incidence_matrix"],
    "tvclust.analysis": ["algebraic_connectivity_of_graph"],
    "tvclust.solver": ["round_to_indicator"],
}


def test_public_api_pinned():
    assert sorted(tvclust.__all__) == sorted(PUBLIC_API)
    assert len(tvclust.__all__) == len(set(tvclust.__all__)) == 39
    for name in tvclust.__all__:
        assert getattr(tvclust, name) is not None, name
    for module, names in MODULE_ONLY.items():
        for name in names:
            assert name not in tvclust.__all__
            assert callable(getattr(importlib.import_module(module), name))
