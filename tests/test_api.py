import importlib

import tvclust

PUBLIC_API = [
    "Graph", "Partition", "SbmParams", "SweepConfig",
    "accuracy", "aggregate_rows", "algebraic_connectivity", "analyze_instance",
    "build_graph", "cluster", "contiguous_partition", "generate_instance",
    "laplacian", "mincut_tv_oracle", "read_instance",
    "recovery_condition_report", "run_sweep", "solve", "subset_cut_check",
    "total_variation", "well_connected", "write_instance", "write_result_csv",
]

# taken out of the package namespace, still importable from their modules
MODULE_ONLY = {
    "tvclust.analysis": [
        "AnalysisReport", "boundary_concentration_bound",
        "spectral_concentration_bound", "spectral_cut_bound_check",
    ],
    "tvclust.clustering": ["ClusteringResult", "indicator_targets"],
    "tvclust.sbm": ["SbmInstance", "SeedSet", "generate", "select_seeds"],
    "tvclust.solver": ["SolveDiagnostics"],
    "tvclust.sweep": ["SweepRow"],
}


def test_public_api_pinned():
    assert sorted(tvclust.__all__) == sorted(PUBLIC_API)
    assert len(tvclust.__all__) == len(set(tvclust.__all__)) == 23
    for name in tvclust.__all__:
        assert getattr(tvclust, name) is not None, name
    for module, names in MODULE_ONLY.items():
        for name in names:
            assert name not in tvclust.__all__
            assert not hasattr(tvclust, name), name
            assert callable(getattr(importlib.import_module(module), name))
