"""System definition, validation, and channel decomposition.

This layer owns the drift/diffusion pair (A, Q) of the linear SDE

    dX_t = A X_t dt + sqrt(Q) dB_t,

restricted to the commuting "magnetic-field" class: A real normal with
spectrum in the open left half plane, Q symmetric positive definite, and
AQ = QA.  Under these assumptions A, A', Q, M = A + A', N = A - A' form a
commuting family, A is unitarily diagonalizable with eigenvalues
a_k = alpha_k + i beta_k (alpha_k < 0), and every analytic object computed
downstream (Cramer functions, kernel spectra, finite-horizon MGFs) is a
function of the channel data (alpha_k, beta_k) and the orthonormal channel
vectors U_k with A U_k = a_k U_k.

The decomposition jointly diagonalizes the commuting Hermitian pair
(M, -iN) with symmetric eigensolvers only: eigenspaces of M are extracted
first (loosely clustered), then -iN is diagonalized on each of them and
runs of equal beta are split by M again.  This guarantees exactly paired
conjugate channels and orthonormal channel vectors, which a general
nonsymmetric eigensolver does not, and needs nothing beyond numpy.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Optional

import numpy as np

from .errors import (
    DataError,
    DimensionError,
    DomainError,
    NumericError,
    ReversibilityError,
)

__all__ = [
    "SystemSpec",
    "Spectrum",
    "CheckResult",
    "ValidationReport",
    "validate_system",
    "spectral_decompose",
    "magnetic_example",
    "mean_epr",
]

# Relative (Frobenius-scaled) tolerance of validate_system's matrix identities.
_VALIDATE_TOL = 1e-10


def _as_square_matrix(value, name: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{name} is not a numeric matrix: {exc}") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains NaN/Inf entries")
    return arr


@dataclasses.dataclass(frozen=True, eq=False)
class SystemSpec:
    """Immutable system definition.

    Parameters
    ----------
    A : array_like, shape (d, d)
        Drift matrix.  Expected real normal with all eigenvalue real parts
        negative (checked by :func:`validate_system`, not at construction).
    Q : array_like, shape (d, d), optional
        Diffusion matrix, symmetric positive definite and commuting with A.
        Defaults to the identity.
    """

    A: np.ndarray
    Q: Optional[np.ndarray] = None
    dim: int = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        A = _as_square_matrix(self.A, "A")
        d = A.shape[0]
        if self.Q is None:
            Q = np.eye(d)
        else:
            Q = _as_square_matrix(self.Q, "Q")
            if Q.shape != (d, d):
                raise DimensionError(
                    f"Q has shape {Q.shape}, expected {(d, d)} to match A"
                )
        A.setflags(write=False)
        Q.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "dim", d)


@dataclasses.dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenpairs (alpha_k, beta_k) of the drift, conjugate pairs adjacent.

    ``pairs[k] = (alpha_k, beta_k)`` with a_k = alpha_k + i beta_k an
    eigenvalue of A; both members of a conjugate pair are stored (+beta
    before -beta) and real eigenvalues carry beta = 0.  Column k of the
    read-only (d, d) complex matrix ``vectors`` is the matching orthonormal
    eigenvector U_k.  ``alphas`` and ``betas`` are built once, as read-only
    arrays.
    """

    pairs: tuple[tuple[float, float], ...]
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.pairs)

    @functools.cached_property
    def alphas(self) -> np.ndarray:
        out = np.array([p[0] for p in self.pairs])
        out.setflags(write=False)
        return out

    @functools.cached_property
    def betas(self) -> np.ndarray:
        out = np.array([p[1] for p in self.pairs])
        out.setflags(write=False)
        return out

    @property
    def has_rotation(self) -> bool:
        """Whether any channel carries a nonzero imaginary part."""
        return any(b != 0.0 for _, b in self.pairs)


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    threshold: float
    severity: str = "error"


@dataclasses.dataclass(frozen=True, eq=False)
class ValidationReport:
    """Named residual checks with an overall verdict.

    ``passed`` ignores warning-severity entries (the reversible-drift check).
    """

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.severity == "error")

    def failing(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [dataclasses.asdict(c) for c in self.checks],
        }


def _sym_sqrt(Q: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of (the symmetric part of) Q."""
    w, V = np.linalg.eigh((Q + Q.T) / 2.0)
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def validate_system(spec: SystemSpec) -> ValidationReport:
    """Check the structural assumptions on (A, Q) and report residuals.

    One entry per assumption (normality of A, symmetry and positive
    definiteness of Q, AQ = QA, spectral stability, non-symmetry of A)
    plus commuting-family spot checks for the pairs (N, Q), (M, Q^{1/2})
    and (A, M).  Failures are reported, never thrown; the reversible case
    (A symmetric) is a warning rather than an error because only the
    large-deviation objects are undefined there.  Matrix identities hold
    when their residual is within 1e-10 of the Frobenius scale.
    """
    A, Q, tol = spec.A, spec.Q, _VALIDATE_TOL
    norm_A = np.linalg.norm(A)
    norm_Q = np.linalg.norm(Q)
    M = A + A.T
    N = A - A.T
    sqrt_Q = _sym_sqrt(Q)

    def comm(F: np.ndarray, G: np.ndarray) -> float:
        return float(np.linalg.norm(F @ G - G @ F))

    res, thr = comm(A, A.T), tol * max(1.0, norm_A**2)
    checks = [CheckResult("normality", res <= thr, res, thr)]
    res = float(np.linalg.norm(Q - Q.T))
    thr = tol * max(1.0, norm_Q)
    checks.append(CheckResult("q_symmetric", res <= thr, res, thr))
    min_eig = float(np.linalg.eigvalsh((Q + Q.T) / 2.0)[0])
    checks.append(CheckResult("q_spd", min_eig > 0.0, min_eig, 0.0))
    res = comm(A, Q)
    thr = tol * max(1.0, norm_A * norm_Q)
    checks.append(CheckResult("aq_commute", res <= thr, res, thr))
    max_real = float(np.max(np.real(np.linalg.eigvals(A))))
    checks.append(CheckResult("stability", max_real < 0.0, max_real, 0.0))
    res = float(np.linalg.norm(N))
    thr = tol * max(1.0, norm_A)
    checks.append(
        CheckResult("not_symmetric", res > thr, res, thr, severity="warning")
    )
    for name, F, G in (
        ("commute_n_q", N, Q),
        ("commute_m_sqrtq", M, sqrt_Q),
        ("commute_a_m", A, M),
    ):
        res = comm(F, G)
        thr = tol * max(1.0, np.linalg.norm(F) * np.linalg.norm(G))
        checks.append(CheckResult(name, res <= thr, res, thr))
    return ValidationReport(tuple(checks))


def check_inputs(T: float, **values) -> None:
    """The shared entry-point check of the finite-horizon layers: raise
    :class:`DomainError` unless the horizon T is positive and finite and
    every named value (a tilt, a theta, a start vector) is finite."""
    if not 0.0 < T < math.inf:
        raise DomainError(f"T must be positive and finite, got {T!r}")
    for name, value in values.items():
        if not np.isfinite(np.asarray(value, dtype=float)).all():
            raise DomainError(f"{name} must be finite, got {value!r}")


def check_integer(name: str, value, error: type = DomainError) -> int:
    """``value`` as an int; raise ``error`` unless it is integral (2.0
    passes; 2.5, inf, NaN, "2" and True do not)."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    return n


def _cluster_by_gap(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Group indices of a sorted 1-D array into runs separated by > tol."""
    cuts = [i for i in range(1, len(values)) if values[i] - values[i - 1] > tol]
    return [np.arange(i, j) for i, j in zip([0] + cuts, cuts + [len(values)]) if j > i]


def spectral_decompose(spec: SystemSpec, *, allow_reversible: bool = False) -> Spectrum:
    """Exact conjugate-paired eigendecomposition of the normal drift.

    Works through the commuting symmetric/skew split rather than a general
    eigensolver: the eigenvalues of M = A + A' are clustered at
    1e-4 (1 + max |w|), the Hermitian -i N / 4 restricted to each cluster
    is diagonalized (its eigenvalues are the channels' beta), and each run
    of equal beta is split by M restricted to it.  Every eigenvector U with
    beta > 0 yields the conjugate pair (U, conj U), and alpha + i beta is
    taken as the Rayleigh quotient U* A U.

    Channels are sorted by (alpha ascending, |beta| descending, beta
    descending), which keeps conjugate pairs adjacent with +beta first and
    makes the output deterministic.  The reconstruction
    ``A = sum_k a_k U_k U_k*`` is verified to relative tolerance 1e-10, so a
    non-normal A raises :class:`NumericError`.  Computed once per spec and
    cached on it (the spec is frozen and A is read-only, so the cache cannot
    go stale); every call returns the same :class:`Spectrum`.

    Parameters
    ----------
    spec : SystemSpec
    allow_reversible : bool
        Permit an all-real spectrum (symmetric A).  By default that raises
        :class:`ReversibilityError`, since every downstream large-deviation
        object degenerates.
    """
    if "_channels" not in vars(spec):
        object.__setattr__(spec, "_channels", _decompose(spec))
    spectrum, reversible = spec._channels
    if reversible and not allow_reversible:
        raise ReversibilityError(
            "drift is symmetric within tolerance; no rotation channels "
            "(pass allow_reversible=True to decompose anyway)"
        )
    return spectrum


def _decompose(spec: SystemSpec) -> tuple[Spectrum, bool]:
    """Uncached :func:`spectral_decompose`: the spectrum and whether A is symmetric."""
    A = spec.A
    scale = 1.0 + float(np.linalg.norm(A))
    beta_tol = 1e-12 * scale
    M, N = A + A.T, A - A.T
    try:
        w, V = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigensolve failed for M={M!r}") from exc

    # Eigenvectors of a cluster leak into clusters a gap away by ~eps |M| / gap,
    # which costs ~eps |M| in the reconstruction whatever the gap, so the
    # clusters can be wide; N cannot mix them (it commutes with M).
    channels: list[tuple[float, float, np.ndarray]] = []
    for idx in _cluster_by_gap(w, 1e-4 * (1.0 + float(np.max(np.abs(w))))):
        Vg = V[:, idx]
        b, Z = np.zeros(1), None  # a lone eigenvalue of M is a real channel
        if len(idx) > 1:
            # N U = 2i beta U, so -i S / 4 has the eigenvalues beta on the cluster.
            S = Vg.T @ N @ Vg
            b, Z = np.linalg.eigh(-0.25j * (S - S.T))
        real = np.abs(b) <= beta_tol
        if real.any():
            W = Vg
            if not real.all():
                # span(Z_real) is closed under conjugation: a real basis of
                # it is the range of its real orthogonal projector.
                P = (Z[:, real] @ Z[:, real].conj().T).real
                W = Vg @ np.linalg.eigh(P)[1][:, -int(real.sum()):]
            channels += [(a.real, 0.0, U) for a, U in zip(*_split_by_m(A, W))]
        # betas within 1e-8 (1 + |A|) form one run, which M splits better
        pos = np.flatnonzero(b > beta_tol)
        for run in _cluster_by_gap(b[pos], 1e-8 * scale):
            for a, U in zip(*_split_by_m(A, Vg @ Z[:, pos[run]])):
                channels.append((a.real, a.imag, U))
                channels.append((a.real, -a.imag, U.conj()))

    channels.sort(key=lambda c: (c[0], -abs(c[1]), -c[1]))
    pairs = tuple((a, b) for a, b, _ in channels)
    vectors = np.column_stack([U for _, _, U in channels])
    vectors.setflags(write=False)
    recon = (vectors * np.array([a + 1j * b for a, b in pairs])) @ vectors.conj().T
    residual = float(np.linalg.norm(recon - A))
    if residual > 1e-10 * scale:
        raise NumericError(
            f"channel reconstruction residual exceeds tolerance ({residual:.3e}); is A normal?"
        )
    reversible = all(abs(b) <= beta_tol for a, b in pairs)
    return Spectrum(pairs=pairs, vectors=vectors), reversible


def _split_by_m(A: np.ndarray, W: np.ndarray) -> tuple[list[complex], list[np.ndarray]]:
    """Orthonormal columns W spanning channels of one beta, rotated onto
    the eigenvectors of M restricted to span(W), with each column's
    Rayleigh quotient U* A U = alpha + i beta."""
    if W.shape[1] > 1:
        W = W @ np.linalg.eigh(W.conj().T @ (A + A.T) @ W)[1]
    a = np.sum(W.conj() * (A @ W), axis=0)
    return a.astype(complex).tolist(), [np.array(u, dtype=complex) for u in W.T]


def magnetic_example(theta: float, extended: bool = False) -> SystemSpec:
    """Charged particle in a constant magnetic field at angle theta.

    The planar system (``extended=False``)

        A = -[[cos t, -sin t], [sin t, cos t]],   Q = cos(t) * I_2,

    and its three-dimensional extension (``extended=True``) appending a
    decoupled reversible coordinate with drift -cos(t) and Q = cos(t) * I_3.
    Channels: alpha = -cos(t), beta = +/- sin(t) (plus one beta = 0 channel
    in the extended case).

    theta must lie in (-pi/2, pi/2) so that cos(t) > 0.
    """
    if not (-math.pi / 2 < theta < math.pi / 2):
        raise DomainError("theta must lie in the open interval (-pi/2, pi/2)")
    c, s = math.cos(theta), math.sin(theta)
    A2 = np.array([[-c, s], [-s, -c]])
    if not extended:
        return SystemSpec(A=A2, Q=c * np.eye(2))
    A3 = np.zeros((3, 3))
    A3[:2, :2] = A2
    A3[2, 2] = -c
    return SystemSpec(A=A3, Q=c * np.eye(3))


def mean_epr(spectrum: Spectrum) -> float:
    """Almost-sure long-run limit of the entropy production rate,
    sum_k beta_k^2 / |alpha_k|."""
    alphas = spectrum.alphas
    betas = spectrum.betas
    return float(np.sum(betas**2 / np.abs(alphas)))
