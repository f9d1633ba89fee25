"""Spectral and multifractal analysis of cross-correlations in multivariate
return series.

Submodules: panel (return panels), spectrum (correlation matrices and
Marchenko-Pastur bounds), modes (eigensignals and mode removal), surrogate
(randomization tests), mfdfa (multifractal DFA), synth (synthetic markets),
cli (command line and file I/O).
"""

import os

# One BLAS thread per process unless the environment says otherwise.  xcorr
# shares its row blocks and the tiles of C = M M^T among one thread per core
# itself; BLAS threads on top of those oversubscribe the cores, and the
# product's last bits would follow the host's thread count.  BLAS reads these
# variables when numpy is first imported, so they take effect only when
# xcorr is imported first; an exported value wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .mfdfa import (
    MfdfaConfig,
    SingularitySpectrum,
    analyze,
    average_spectra,
    binomial_cascade,
    singularity_spectrum,
)
from .modes import Eigensignal, ResidualPanel, eigensignals, remove_mode, remove_modes_iterative
from .panel import PricePanel, ReturnPanel, coarsen, log_returns, standardize
from .spectrum import (
    CorrelationMatrix,
    EigenSpectrum,
    MpBounds,
    correlation_matrix,
    eigendecompose,
    element_distribution,
    mp_bounds,
    overlap_fraction,
    windowed_element_distribution,
)
from .surrogate import (
    SurrogateSpec,
    apply_surrogate,
    magnitudes_only,
    rotate_daily,
    rotate_free,
    shuffle_magnitudes,
    shuffle_signs,
    signs_only,
)
from .synth import MarketModel, expected_lambda1, generate, preset

__version__ = "0.1.0"

__all__ = [
    "PricePanel",
    "ReturnPanel",
    "log_returns",
    "standardize",
    "coarsen",
    "CorrelationMatrix",
    "EigenSpectrum",
    "MpBounds",
    "correlation_matrix",
    "eigendecompose",
    "mp_bounds",
    "overlap_fraction",
    "element_distribution",
    "windowed_element_distribution",
    "Eigensignal",
    "ResidualPanel",
    "eigensignals",
    "remove_mode",
    "remove_modes_iterative",
    "SurrogateSpec",
    "apply_surrogate",
    "rotate_free",
    "rotate_daily",
    "shuffle_signs",
    "shuffle_magnitudes",
    "signs_only",
    "magnitudes_only",
    "MfdfaConfig",
    "SingularitySpectrum",
    "analyze",
    "average_spectra",
    "singularity_spectrum",
    "binomial_cascade",
    "MarketModel",
    "generate",
    "expected_lambda1",
    "preset",
    "__version__",
]
