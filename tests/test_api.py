"""The public surface of the package, pinned so that additions and removals
are deliberate."""

import importlib
import types

import epr_ldp

LAYERS = ("chaos", "cramer", "errors", "model", "montecarlo", "spectral")

PUBLIC = [
    "CheckResult", "ConfigError", "CramerCurve", "CramerDomain", "DataError",
    "DimensionError", "DomainError", "EprEnsemble", "EprLdpError", "KernelSpectrum",
    "MgfEstimate", "MgfQuery", "NumericError", "RatePoint", "ReversibilityError",
    "SimConfig", "Spectrum", "SystemSpec", "TailEstimate", "ValidationReport",
    "conditional_mgf", "conditional_mgf_series", "cramer", "cramer_curve",
    "cramer_domain", "cramer_finite_T", "cramer_finite_T_series",
    "eigenfunction_norm_sq", "empirical_mgf", "g_coefficients", "gamma_tail",
    "kernel_eval", "kernel_spectrum", "legendre_oracle", "log_det_tail",
    "magnetic_example", "mean_epr", "nystrom_spectrum", "omega_roots", "rate", "s0",
    "simulate_epr", "simulate_z_integral", "spectral_decompose", "spectrum_gamma_tail",
    "symmetry_residuals", "tail_estimate", "trace_closed_form", "validate_system",
]


def test_package_names_are_pinned():
    names = sorted(n for n, v in vars(epr_ldp).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == sorted(PUBLIC)


def test_package_exports_exactly_the_layers_names():
    exported = set()
    for layer in LAYERS:
        exported |= set(importlib.import_module(f"epr_ldp.{layer}").__all__)
    assert exported == set(PUBLIC)
