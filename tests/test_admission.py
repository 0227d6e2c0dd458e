"""Admission of arguments: every public entry point that takes a system or a
spectrum refuses one outside the model class with a library error, never
with a raw Python error and never with a value.

The entry points are found by signature (a parameter named ``spec`` or
``spectrum``), so a new one is covered as soon as it is exported.  Warnings
are errors throughout.
"""

import inspect
import math

import numpy as np
import pytest

import epr_ldp
from epr_ldp import (DataError, DomainError, EprLdpError, MgfQuery, SimConfig, SystemSpec,
                     empirical_mgf, kernel_eval, magnetic_example, omega_roots,
                     spectral_decompose, tail_estimate, validate_system)

pytestmark = pytest.mark.filterwarnings("error")

# A stable drift that is not normal: outside the model class.
NON_NORMAL = SystemSpec(np.array([[-1.0, 0.5], [0.0, -1.0]]))
SPEC = magnetic_example(math.pi / 4)
SPECTRUM = spectral_decompose(SPEC)


def _taking(kind: str) -> list:
    """The public callables of the package with a parameter named ``kind``."""
    names = []
    for name, value in sorted(vars(epr_ldp).items()):
        if name.startswith("_") or not callable(value):
            continue
        try:
            params = inspect.signature(value).parameters
        except (TypeError, ValueError):
            continue
        if kind in params:
            names.append(name)
    return names


SPEC_TAKERS = _taking("spec")
SPECTRUM_TAKERS = _taking("spectrum")
TAKERS = [(n, "spec") for n in SPEC_TAKERS] + [(n, "spectrum") for n in SPECTRUM_TAKERS]
IDS = [f"{n}-{kind}" for n, kind in TAKERS]

# One valid value per required parameter name; x is a start for a system
# and an EPR level for a spectrum.
VALUES = {
    "T": 1.0, "lam": 0.1, "q": MgfQuery(x=(1.0, 0.0), theta=0.1), "u1": 0.2, "u2": 0.3,
    "config": SimConfig(T=1.0, dt=0.1, n_traj=4), "lambdas": [0.0, 0.1],
    "lambda_grid": [0.0, 0.1], "x_grid": [0.5], "j_start": 5,
}
START = {"spec": (1.0, 0.0), "spectrum": 0.5}


def _call(name: str, kind: str, value, config=None):
    """``name`` called with ``value`` as its ``kind`` argument and a valid
    value for every other required parameter (``config`` if given)."""
    fn = getattr(epr_ldp, name)
    args = {}
    for p in inspect.signature(fn).parameters.values():
        if p.name == kind:
            args[p.name] = value
        elif p.name == "config" and config is not None:
            args[p.name] = config
        elif p.default is p.empty:
            args[p.name] = START[kind] if p.name == "x" else VALUES[p.name]
    return fn(**args)


def test_discovery_finds_every_layer():
    assert {"s0", "g_coefficients", "conditional_mgf", "conditional_mgf_series",
            "trace_closed_form", "simulate_epr", "simulate_z_integral",
            "validate_system"} <= set(SPEC_TAKERS)
    assert {"cramer", "cramer_domain", "cramer_curve", "rate", "legendre_oracle",
            "symmetry_residuals", "kernel_spectrum", "spectrum_gamma_tail",
            "mean_epr"} <= set(SPECTRUM_TAKERS)


@pytest.mark.parametrize("name, kind", TAKERS, ids=IDS)
def test_valid_arguments_are_admitted(name, kind):
    # the other arguments are valid, so the refusals below are the spec's
    _call(name, kind, SPEC if kind == "spec" else SPECTRUM)


@pytest.mark.parametrize("name, kind", TAKERS, ids=IDS)
def test_string_refused(name, kind):
    with pytest.raises(DataError):
        _call(name, kind, "abc")


@pytest.mark.parametrize("name, kind", TAKERS, ids=IDS)
def test_wrong_kind_refused(name, kind):
    # a Spectrum where a SystemSpec belongs, and the reverse
    with pytest.raises(DataError):
        _call(name, kind, SPECTRUM if kind == "spec" else SPEC)


@pytest.mark.parametrize("name", [n for n in SPEC_TAKERS if n != "validate_system"])
def test_non_normal_drift_refused(name):
    with pytest.raises(EprLdpError):
        _call(name, "spec", NON_NORMAL)


def test_non_normal_drift_fails_validation():
    failing = {c.name for c in validate_system(NON_NORMAL).failing()}
    assert {"normality", "commute_a_m"} <= failing


@pytest.mark.parametrize("scheme", ["exact_ou", "euler_maruyama"])
@pytest.mark.parametrize("start", ["stationary", (1.0, 0.0)])
def test_non_normal_drift_never_simulated(scheme, start):
    config = SimConfig(T=1.0, dt=0.1, n_traj=4, scheme=scheme, start=start)
    with pytest.raises(DomainError, match="normality"):
        _call("simulate_epr", "spec", NON_NORMAL, config)


MISTYPED = [
    pytest.param(lambda: empirical_mgf("abc", 0.1), DataError, id="empirical_mgf-str"),
    pytest.param(lambda: tail_estimate("abc", 1.0), DataError, id="tail_estimate-str"),
    pytest.param(lambda: MgfQuery(x=[1.0, 0.0], theta=0.1, j_max="a"), DomainError,
                 id="MgfQuery-j_max=str"),
    pytest.param(lambda: kernel_eval(SPEC, 0.0, 1.0, "a", 0.2), DomainError,
                 id="kernel_eval-u1=str"),
    pytest.param(lambda: omega_roots("a", 1.0, 2), DomainError, id="omega_roots-alpha=str"),
]


@pytest.mark.parametrize("call, error", MISTYPED)
def test_mistyped_argument_refused(call, error):
    with pytest.raises(error):
        call()
