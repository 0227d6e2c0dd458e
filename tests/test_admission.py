"""Admission of arguments: every public entry point that takes a system or a
spectrum refuses one outside the model class with a library error, never
with a raw Python error and never with a value; one that takes a query or a
simulation config refuses an object of another type the same way.

The entry points are found by signature (a parameter named ``spec``,
``spectrum``, ``q`` or ``config``), so a new one is covered as soon as it is
exported.  Warnings are errors throughout.
"""

import inspect
import math

import numpy as np
import pytest

import epr_ldp
from epr_ldp import (DataError, DomainError, EprEnsemble, EprLdpError, MgfQuery, SimConfig,
                     SystemSpec, empirical_mgf, kernel_eval, magnetic_example, omega_roots,
                     spectral_decompose, tail_estimate, validate_system)

pytestmark = pytest.mark.filterwarnings("error")

# A stable drift that is not normal: outside the model class.
NON_NORMAL = SystemSpec(np.array([[-1.0, 0.5], [0.0, -1.0]]))
SPEC = magnetic_example(math.pi / 4)
SPECTRUM = spectral_decompose(SPEC)


def _taking(kind: str) -> list:
    """The public functions of the package with a parameter named ``kind``
    (classes are left out: ``EprEnsemble.config`` is a fingerprint string)."""
    names = []
    for name, value in sorted(vars(epr_ldp).items()):
        if name.startswith("_") or not inspect.isfunction(value):
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
TAKERS = [(n, kind) for kind in ("spec", "spectrum", "q", "config") for n in _taking(kind)]
IDS = [f"{n}-{kind}" for n, kind in TAKERS]

# One valid value per required parameter name; x is an EPR level for a
# spectrum and a start for every other kind.
VALUES = {
    "spec": SPEC, "spectrum": SPECTRUM,
    "T": 1.0, "lam": 0.1, "q": MgfQuery(x=(1.0, 0.0), theta=0.1), "u1": 0.2, "u2": 0.3,
    "config": SimConfig(T=1.0, dt=0.1, n_traj=4), "lambdas": [0.0, 0.1],
    "lambda_grid": [0.0, 0.1], "x_grid": [0.5], "j_start": 5,
}
START = {"spec": (1.0, 0.0), "spectrum": 0.5}
# an argument of a model type that belongs elsewhere
WRONG = {"spec": SPECTRUM, "spectrum": SPEC, "q": VALUES["config"], "config": VALUES["q"]}


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
            args[p.name] = START.get(kind, START["spec"]) if p.name == "x" else VALUES[p.name]
    return fn(**args)


def test_discovery_finds_every_layer():
    assert {"s0", "g_coefficients", "conditional_mgf", "conditional_mgf_series",
            "trace_closed_form", "simulate_epr", "simulate_z_integral",
            "validate_system"} <= set(SPEC_TAKERS)
    assert {"cramer", "cramer_domain", "cramer_curve", "rate", "legendre_oracle",
            "symmetry_residuals", "kernel_spectrum", "spectrum_gamma_tail",
            "mean_epr"} <= set(SPECTRUM_TAKERS)
    assert {"conditional_mgf", "conditional_mgf_series"} <= set(_taking("q"))
    assert {"simulate_epr", "simulate_z_integral"} <= set(_taking("config"))


@pytest.mark.parametrize("name, kind", TAKERS, ids=IDS)
def test_valid_arguments_are_admitted(name, kind):
    # the other arguments are valid, so the refusals below are the ``kind`` argument's
    _call(name, kind, VALUES[kind])


@pytest.mark.parametrize("name, kind", TAKERS, ids=IDS)
def test_string_refused(name, kind):
    with pytest.raises(DataError):
        _call(name, kind, "abc")


@pytest.mark.parametrize("name, kind", TAKERS, ids=IDS)
def test_wrong_kind_refused(name, kind):
    # a Spectrum where a SystemSpec belongs, a SimConfig where an MgfQuery
    # belongs, and the reverse
    with pytest.raises(DataError):
        _call(name, kind, WRONG[kind])


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
    pytest.param(lambda: magnetic_example("a"), DomainError, id="magnetic_example-theta=str"),
    pytest.param(lambda: magnetic_example(None), DomainError, id="magnetic_example-theta=None"),
    pytest.param(lambda: magnetic_example(True), DomainError, id="magnetic_example-theta=True"),
] + [
    pytest.param(lambda s=samples: fn(EprEnsemble(s, 1.0, "x"), 0.1), DomainError,
                 id=f"{fn.__name__}-samples={name}")
    for fn in (empirical_mgf, tail_estimate)
    for name, samples in [("str", "abc"), ("nan", np.array([1.0, math.nan])),
                          ("inf", np.array([1.0, math.inf])), ("-inf", [-math.inf, 1.0])]
]


@pytest.mark.parametrize("call, error", MISTYPED)
def test_mistyped_argument_refused(call, error):
    with pytest.raises(error):
        call()
