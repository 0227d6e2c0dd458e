"""Shared fixtures: the planar magnetic benchmark and a commuting-Q builder."""

import math

import numpy as np
import pytest

from epr_ldp.model import SystemSpec, magnetic_example, spectral_decompose


@pytest.fixture(scope="session")
def pi4_spec():
    """Planar magnetic system at theta = pi/4 (alpha = -1/sqrt2, beta = +-1/sqrt2)."""
    return magnetic_example(math.pi / 4)


@pytest.fixture(scope="session")
def pi4_spectrum(pi4_spec):
    return spectral_decompose(pi4_spec)


@pytest.fixture(scope="session")
def classic_spec():
    """d=2 system with channels (alpha, beta) = (-1, +-1)."""
    return SystemSpec(np.array([[-1.0, 1.0], [-1.0, -1.0]]))


@pytest.fixture(scope="session")
def classic_spectrum(classic_spec):
    return spectral_decompose(classic_spec)


def commuting_q_variants(A: np.ndarray) -> dict:
    """Three SPD noise matrices commuting with A: identity, scalar, polynomial."""
    M = A + A.T
    return {
        "identity": np.eye(A.shape[0]),
        "scalar": 0.1 * np.eye(A.shape[0]),
        "poly": 1.5 * np.eye(A.shape[0]) - 0.4 * M + 0.1 * (M @ M),
    }
