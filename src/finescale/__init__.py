"""Refine coarse-grained areal spatial data onto a finer partition.

Coarse observations are linked to a latent fine-grained field through a
row-stochastic aggregation matrix; auxiliary spatial datasets of arbitrary
granularity enter through Gaussian-process posteriors whose predictive
uncertainty is propagated into the fit.
"""

from finescale.geo import (
    AggregationMap,
    ArealDataset,
    Partition,
    Region,
    build_aggregation,
    load_partition,
)
from finescale.kernel import SEKernelParams, cov_matrix
from finescale.gp_aux import AuxGPModel, AuxPosterior, fit_all_aux, fit_aux_gp, predict_aux
from finescale.downscale import (
    DownscaleParams,
    Refinement,
    build_design,
    fit_downscale,
    predict_fine,
)

__version__ = "0.1.0"
