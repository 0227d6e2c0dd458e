"""Seeded random systems inside the commuting (normal drift) class.

Used by the test suite and the self-check command to exercise the analytic
machinery on systems with no hand-picked structure.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .model import SystemSpec

__all__ = ["random_system"]


def random_system(
    rng: np.random.Generator, d: int, q_style: str = "identity"
) -> SystemSpec:
    """Random stable normal drift of dimension d with a matched noise matrix.

    The drift is an orthogonal conjugation of a block-diagonal matrix built
    from 2x2 rotation blocks [[a, b], [-b, a]] (a in [-2, -0.3], b in
    [0.3, 2]) plus one real stable eigenvalue when d is odd, so every d >= 2
    system is genuinely irreversible.  ``q_style`` picks the noise:

      identity  Q = I
      scalar    Q = c I, c in [0.2, 3]
      poly      Q = q0 I - q1 M + q2 M^2 (SPD: M is negative definite)

    All three commute with the drift by construction.
    """
    if d < 1:
        raise ConfigError("dimension must be >= 1")
    core = np.zeros((d, d))
    for k in range(0, d - 1, 2):
        a = -rng.uniform(0.3, 2.0)
        b = rng.uniform(0.3, 2.0)
        core[k:k + 2, k:k + 2] = [[a, b], [-b, a]]
    if d % 2:
        core[-1, -1] = -rng.uniform(0.3, 2.0)
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    A = basis @ core @ basis.T
    if q_style == "identity":
        return SystemSpec(A)
    if q_style == "scalar":
        return SystemSpec(A, rng.uniform(0.2, 3.0) * np.eye(d))
    if q_style == "poly":
        M = A + A.T
        Q = (
            rng.uniform(0.5, 2.0) * np.eye(d)
            - rng.uniform(0.1, 1.0) * M
            + rng.uniform(0.05, 0.5) * (M @ M)
        )
        return SystemSpec(A, Q)
    raise ConfigError(f"unknown q_style {q_style!r}")
