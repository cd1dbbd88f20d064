import dataclasses
import types

import numpy as np
import pytest

import finescale
from finescale.evaluate import grid_partition
from finescale.geo import partition_to_geojson

# The public API; a name added to or dropped from finescale/__init__.py must change this list.
EXPORTED = [
    "AggregationMap", "ArealDataset", "AuxGPModel", "AuxPosterior", "DownscaleParams",
    "Partition", "Refinement", "Region", "SEKernelParams", "build_aggregation",
    "build_design", "cov_matrix", "fit_all_aux", "fit_aux_gp", "fit_downscale", "load_partition",
    "predict_aux", "predict_fine",
]

# The fields of each exported record; a field added to or dropped from one must change this list.
RECORD_FIELDS = {
    "AggregationMap": ["coarse", "fine", "H"],
    "ArealDataset": ["partition", "values"],
    "AuxGPModel": [
        "dataset_id", "params", "noise_sigma", "train_centroids", "train_values", "offset",
        "scale", "log_marginal", "diagnostics",
    ],
    "AuxPosterior": ["dataset_id", "mean", "var", "reduction", "kernel", "Xf"],
    "DownscaleParams": ["w", "kernel", "sigma", "diagnostics"],
    "Partition": ["name", "regions", "centroids"],
    "Refinement": ["mean", "var", "V", "params", "Xf", "posteriors"],
    "Region": ["id", "geometry"],
    "SEKernelParams": ["alpha", "gamma"],
}


def test_exported_names_are_pinned():
    names = sorted(
        n for n, v in vars(finescale).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert names == EXPORTED


def test_record_fields_are_pinned():
    fields = {
        name: [f.name for f in dataclasses.fields(getattr(finescale, name))]
        for name in RECORD_FIELDS
    }
    assert fields == RECORD_FIELDS


def test_partition_centroids_are_one_read_only_array():
    built = grid_partition(3, 2, "g")
    loaded = finescale.load_partition(partition_to_geojson(built))
    for part in (built, loaded):
        assert part.centroids is part.centroids
        assert part.centroids.shape == (6, 2) and part.centroids.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            part.centroids[0, 0] = 0.0
    # the partition keeps its own copy: the caller's array stays writeable
    given = np.array(built.centroids)
    copy = finescale.Partition("copy", built.regions, given)
    assert given.flags.writeable and np.array_equal(copy.centroids, given)
