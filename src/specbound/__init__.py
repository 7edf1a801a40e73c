"""Classical power-spectral-density estimation with finite-sample error certificates.

The package evaluates periodogram, windowed-autocovariance (Blackman-Tukey),
block-averaged (Bartlett), and tapered-segment (Welch) spectral estimators in
one quadratic-form framework, and computes explicit high-probability error
certificates for them: pointwise and worst-case-over-frequency concentration
bounds, geometric bias bounds, and data-driven total bounds, all validated by
Monte Carlo harnesses.
"""

from .bounds import (
    BoundContext,
    Certificate,
    GAUSSIAN,
    NoiseAssumption,
    bartlett_bias_closed_form,
    check_conditions,
    check_estimator_conditions,
    data_driven_error_bound,
    data_driven_factor,
    geometric_bias_bound,
    optimize_bartlett_m,
    pointwise_error_bound,
    sub_gaussian,
    tail_cutoff_lag,
    worst_case_error_bound,
)
from .concentration import monte_carlo_tail_check
from .constants import GAUSSIAN_QUADFORM, hanson_wright
from .estimators import (
    Bartlett,
    BiasedPeriodogram,
    BlackmanTukey,
    UnbiasedPeriodogram,
    Welch,
    build_matrix,
    certificate_params,
    closed_form_bias,
    evaluate_fast,
    lag_window,
    taper_window,
)
from .quadform import (
    BiasCoefficients,
    DataMatrix,
    QuadraticForm,
    SpectralEstimate,
    bias_coefficients,
    diagonal_profile,
    evaluate_generic,
    evaluate_generic_grid,
    exact_bias_sup,
    expected_estimate,
    frequency_grid,
)
from .signals import (
    GeometricScalar,
    StateSpace,
    WhiteNoise,
    certify_decay,
    psd,
    sample_geometric,
    sample_state_space,
    sample_white,
)

__version__ = "0.1.0"
