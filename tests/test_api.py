import types

import finescale

# The public API; a name added to or dropped from finescale/__init__.py must change this list.
EXPORTED = [
    "AggregationMap", "ArealDataset", "AuxGPModel", "AuxPosterior", "DownscaleParams",
    "Partition", "Refinement", "Region", "SEKernelParams", "build_aggregation",
    "build_design", "cov_matrix", "fit_all_aux", "fit_aux_gp", "fit_downscale", "load_partition",
    "predict_aux", "predict_fine",
]


def test_exported_names_are_pinned():
    names = sorted(
        n for n, v in vars(finescale).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert names == EXPORTED
