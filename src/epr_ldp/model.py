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
import numbers
from typing import Optional

import numpy as np

from .errors import DataError, DimensionError, DomainError, NumericError

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
# Range of the Frobenius norms of A and Q that spectral_decompose accepts.  A
# norm is formed through its square, and alpha^2 and beta^2 enter every
# downstream object, so both must stay inside the normal double range
# (~2.2e-308 to ~1.8e308).
_MIN_NORM, _MAX_NORM = 1e-150, 1e150


def _scale_error(spec: "SystemSpec") -> Optional[tuple[str, float, float]]:
    """(name, Frobenius norm, violated bound) of the first of A and Q whose
    norm lies outside [_MIN_NORM, _MAX_NORM], or None."""
    for name, M in (("A", spec.A), ("Q", spec.Q)):
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(M))
        if not _MIN_NORM <= norm <= _MAX_NORM:
            return name, norm, _MAX_NORM if norm > 1.0 else _MIN_NORM
    return None


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
    large-deviation objects are undefined there.  Each matrix identity holds
    when its residual is within 1e-10 of its own Frobenius scale, with no
    floor, so the verdicts do not depend on the scale of A.  Commutators
    are decided on power-of-two rescaled factors, so no A inside the norm
    range overflows or underflows them.  An A or a Q whose Frobenius norm
    lies outside [1e-150, 1e150] (which :func:`spectral_decompose` refuses)
    is reported by a failing ``scale`` check alone, before any product of
    matrices can overflow.
    """
    A, Q, tol = spec.A, spec.Q, _VALIDATE_TOL
    bad = _scale_error(spec)
    if bad is not None:
        return ValidationReport((CheckResult("scale", False, bad[1], bad[2]),))
    norm_A = np.linalg.norm(A)
    M = A + A.T
    N = A - A.T
    sqrt_Q = _sym_sqrt(Q)

    def comm(name: str, F: np.ndarray, G: np.ndarray) -> CheckResult:
        # ||FG - GF|| against tol ||F|| ||G||, both taken with F and G scaled
        # by exact powers of two to norm < 1, so nothing overflows or underflows
        e, f = math.frexp(np.linalg.norm(F))[1], math.frexp(np.linalg.norm(G))[1]
        F, G = np.ldexp(F, -e), np.ldexp(G, -f)
        res = float(np.linalg.norm(F @ G - G @ F))
        thr = tol * float(np.linalg.norm(F) * np.linalg.norm(G))
        return CheckResult(name, res <= thr, math.ldexp(res, e + f), math.ldexp(thr, e + f))

    checks = [comm("normality", A, A.T)]
    res = float(np.linalg.norm(Q - Q.T))
    thr = tol * float(np.linalg.norm(Q))
    checks.append(CheckResult("q_symmetric", res <= thr, res, thr))
    min_eig = float(np.linalg.eigvalsh((Q + Q.T) / 2.0)[0])
    checks.append(CheckResult("q_spd", min_eig > 0.0, min_eig, 0.0))
    checks.append(comm("aq_commute", A, Q))
    max_real = float(np.max(np.real(np.linalg.eigvals(A))))
    checks.append(CheckResult("stability", max_real < 0.0, max_real, 0.0))
    res = float(np.linalg.norm(N))
    thr = tol * float(norm_A)
    checks.append(
        CheckResult("not_symmetric", res > thr, res, thr, severity="warning")
    )
    checks += [comm("commute_n_q", N, Q), comm("commute_m_sqrtq", M, sqrt_Q),
               comm("commute_a_m", A, M)]
    return ValidationReport(tuple(checks))


def check_inputs(T: float, **values) -> None:
    """The shared entry-point check of the finite-horizon layers: raise
    :class:`DomainError` unless the horizon T is a positive, finite real
    number and every named value (a tilt, a theta, a start vector) is a
    finite real number or an array of them.  Scalars and the entries of
    lists, tuples and non-numeric arrays pass :func:`check_real`'s rule."""
    if not 0.0 < check_real("T", T) < math.inf:
        raise DomainError(f"T must be positive and finite, got {T!r}")
    for name, value in values.items():
        if isinstance(value, np.ndarray) and value.dtype.kind in "fiu":
            finite = np.isfinite(value).all()
        elif isinstance(value, (list, tuple, np.ndarray)):
            finite = all(math.isfinite(check_real(name, v))
                         for v in np.asarray(value, dtype=object).flat)
        else:
            finite = math.isfinite(check_real(name, value))
        if not finite:
            raise DomainError(f"{name} must be finite, got {value!r}")


def check_real(name: str, value, error: type = DomainError) -> float:
    """``value`` as a float; raise ``error`` unless it is a real number
    (2, 2.5, inf and numpy scalars pass; "2", True and arrays do not).
    An integer beyond the float range becomes +-inf."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return math.inf if value > 0 else -math.inf


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


def spectral_decompose(spec: SystemSpec) -> Spectrum:
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
    makes the output deterministic.  The tolerances are relative to the
    scale s = (1 + |A|) min(1, |A|) (|A| the Frobenius norm, so s ~ |A|
    below unit norm): a channel with |beta| <= 1e-12 s is real (beta = 0.0),
    and the reconstruction ``A = sum_k a_k U_k U_k*`` must hold to 1e-10 s,
    so a non-normal A raises :class:`NumericError` at any scale.  An A with
    a channel alpha_k >= 0 (not stable), or an A or a Q whose Frobenius norm
    lies outside [1e-150, 1e150], raises :class:`DomainError`.

    A reversible drift (symmetric A, every beta = 0, ``has_rotation``
    False) decomposes like any other: its EPR is identically 0, and only
    the large-deviation objects of :mod:`epr_ldp.cramer` refuse it, with
    :class:`ReversibilityError`.  Computed once per spec and cached on it
    (the spec is frozen and A is read-only, so the cache cannot go stale);
    every call returns the same :class:`Spectrum`.
    """
    if "_channels" not in vars(spec):
        object.__setattr__(spec, "_channels", _decompose(spec))
    return spec._channels


def _decompose(spec: SystemSpec) -> Spectrum:
    """Uncached :func:`spectral_decompose`."""
    bad = _scale_error(spec)
    if bad is not None:
        name, norm, bound = bad
        side = "exceeds" if bound == _MAX_NORM else "is below"
        raise DomainError(f"|{name}| = {norm:.3g} {side} {bound:g}; rescale time or state")
    A = spec.A
    norm_a = float(np.linalg.norm(A))
    scale = (1.0 + norm_a) * min(1.0, norm_a)
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
        # betas within 1e-8 s form one run, which M splits better
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
    if not pairs[-1][0] < 0.0:  # channels are sorted by alpha
        raise DomainError(f"A is not stable: a channel has alpha = {pairs[-1][0]:.3g} >= 0")
    return Spectrum(pairs=pairs, vectors=vectors)


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
