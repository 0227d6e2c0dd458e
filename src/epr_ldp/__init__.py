"""Large-deviation analytics for the entropy production rate (EPR) of
linear diffusions dX = AX dt + sqrt(Q) dB with real normal stable drift
and commuting SPD noise.

The package computes the Cramer function and rate function of the EPR in
closed form, the spectrum of the associated finite-horizon kernel
operator, the Fredholm-determinant conditional MGF, and finite-horizon
corrections — each backed by an independent numerical oracle (Nystrom
discretization, Legendre-transform search, Monte Carlo simulation).
"""

from .chaos import (
    MgfQuery,
    conditional_mgf,
    conditional_mgf_series,
    cramer_finite_T,
    cramer_finite_T_series,
    g_coefficients,
    s0,
)
from .cramer import (
    CramerCurve,
    CramerDomain,
    RatePoint,
    cramer,
    cramer_curve,
    cramer_derivative,
    cramer_domain,
    legendre_oracle,
    rate,
    symmetry_residuals,
)
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    DomainError,
    EprLdpError,
    NumericError,
    ReversibilityError,
)
from .model import (
    CheckResult,
    Spectrum,
    SystemSpec,
    ValidationReport,
    magnetic_example,
    mean_epr,
    spectral_decompose,
    validate_system,
)
from .montecarlo import (
    EprEnsemble,
    MgfEstimate,
    SimConfig,
    TailEstimate,
    empirical_mgf,
    simulate_epr,
    simulate_z_integral,
    tail_estimate,
)
from .spectral import (
    KernelSpectrum,
    eigenfunction_norm_sq,
    gamma_tail,
    kernel_eval,
    kernel_spectrum,
    log_det_tail,
    nystrom_spectrum,
    omega_roots,
    spectrum_gamma_tail,
    trace_closed_form,
)

__version__ = "0.1.0"
