import types

import finescale

# The public API; a name added to or dropped from finescale/__init__.py must change this list.
EXPORTED = [
    "AggregationMap", "ArealDataset", "AuxGPModel", "AuxPosterior", "BaselineResult",
    "DownscaleParams", "MetricReport", "Partition", "Refinement", "Region", "SEKernelParams",
    "aggregate", "build_aggregation", "build_design", "cov_matrix", "fit_all_aux", "fit_aux_gp",
    "fit_downscale", "generate_synthetic", "gpr_baseline", "load_partition", "lr_baseline",
    "mape", "paired_ttest", "predict_aux", "predict_fine", "run_comparison", "sd2_baseline",
]


def test_exported_names_are_pinned():
    names = sorted(
        n for n, v in vars(finescale).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert names == EXPORTED
