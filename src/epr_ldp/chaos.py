"""Finite-horizon conditional MGF of the quadratic path functional.

For the unit-noise process Y started at x (dY = D_lam Y dt + dW with
D_lam = A + lam*N) the functional int_0^T |N Y_s|^2 ds is a quadratic form
in a Gaussian process.  Each rotation channel (alpha, beta) contributes
independently, so with q = 4 theta beta^2 and mu^2 = alpha^2 - 2q the
production path is closed form per channel:

  * the Fredholm determinant prod_j (1 - theta gamma_j) of the kernel
    operator (Gelfand-Yaglom),
        w = e^{alpha T} [cosh(mu T) - (alpha/mu) sinh(mu T)],
    with cos/sin in sqrt(-mu^2) when mu^2 < 0 and 1 - alpha T at mu^2 = 0;
  * the scalar Riccati coefficient of the start-dependent Gaussian part,
        p = 2q sinh(mu T) / (mu cosh(mu T) - alpha sinh(mu T)).

``conditional_mgf`` is then exp(sum_k [-log w_k + p_k |<x, U_k>|^2] / 2)
and ``cramer_finite_T`` averages the start over the stationary law of the
reduced process, -(1/2T) sum_k [log w_k + log(1 - p_k/(2|alpha_k|))].  Both
are evaluated in log space (e^{-2 mu T} instead of cosh/sinh), so they stay
finite at horizons far past |alpha| T = 709.  A channel diverges iff mu^2 < 0
and either nu T >= pi or b = cos(nu T) + |alpha| sin(nu T)/nu <= 0 (nu^2 =
-mu^2); theta >= 1/gamma_1 decides only in b's rounding band (2e-14 of it).

The eigenvalue-series route — a truncated kernel spectrum, the projection
coefficients ``g`` of the start onto its eigenfunctions and analytic
log-determinant tails — is kept as the independent oracles
``conditional_mgf_series`` and ``cramer_finite_T_series``.  Both evaluate
one array expression over every kernel-spectrum entry and never call the
closed form; ``j_max`` (in ``MgfQuery`` and ``cramer_finite_T``) is theirs.

Everything here is Q-free: the tilted process is driven by unit noise, so
only the drift's spectral data enters.  Each entry point decomposes the spec
before it reads it, so it meets every refusal of ``spectral_decompose``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .model import (Spectrum, SystemSpec, check_inputs, check_integer, check_start,
                    spectral_decompose)
from .spectral import (
    eigenfunction_norm_sq,
    kernel_spectrum,
    log_det_tail,
    trace_closed_form,
)

__all__ = [
    "MgfQuery",
    "s0",
    "g_coefficients",
    "conditional_mgf",
    "conditional_mgf_series",
    "cramer_finite_T",
    "cramer_finite_T_series",
]

# exp() overflows past ~709.78 in double precision; an MGF that large is
# reported as a clean +inf instead of tripping the libm overflow.
_LOG_HUGE = 709.0


@dataclasses.dataclass(frozen=True)
class MgfQuery:
    """Evaluation point for the conditional MGF E^x exp(theta * functional).

    ``j_max`` is read only by ``conditional_mgf_series``.  ``lam`` is read by
    nothing (no projection depends on the tilt); the benchmark passes it.
    """

    x: Sequence[float]
    theta: float
    lam: float = 0.0
    T: float = 1.0
    j_max: int = 200

    def __post_init__(self) -> None:
        check_inputs(self.T, x=self.x, theta=self.theta, lam=self.lam)
        if not check_integer("j_max", self.j_max) >= 1:
            raise DomainError("j_max must be >= 1")


def _overlaps_sq(x: np.ndarray, spectrum: Spectrum) -> np.ndarray:
    """|<x, U_k>|^2 per channel entry; for a real x it equals |x' U_k|^2.
    An overlap beyond the double range (|x| past ~1e154) is +inf."""
    with np.errstate(over="ignore"):
        return np.abs(x @ spectrum.vectors) ** 2


def s0(x, spec: SystemSpec, T: float) -> float:
    """The paper's mean S_0: the mean of int_0^T |N Y_s|^2 ds for the
    unit-noise process started at x, the zeroth-chaos term of the functional.

    Splits as a start-dependent quadratic part, per channel
    (2 beta^2/alpha)(e^{2 alpha T} - 1)|<x, U_k>|^2, plus the
    start-independent trace integral int_0^T tr[N' e^{uM} N](T - u) du,
    which is half the kernel trace ``trace_closed_form``.  A start whose
    overlaps with the rotation channels overflow gives +inf.
    """
    check_inputs(T, x=x)
    spectrum, vec = check_start(spec, x)
    if not spectrum.has_rotation:
        return 0.0
    alphas, betas = spectrum.alphas, spectrum.betas
    coef = 2.0 * betas**2 / alphas * np.expm1(2.0 * alphas * T)
    # beta = 0 channels add nothing, even where their overlap overflows
    quad = float(np.sum(coef * np.where(coef != 0.0, _overlaps_sq(vec, spectrum), 0.0)))
    return quad + 0.5 * trace_closed_form(spec, T)


def _hat_g(alpha, omega, phase, T: float, beta):
    """Projection coefficients before the |<x, U_k>| factor, elementwise.

    (4 beta^2/alpha) * (-2 cos(theta) sin(omega T + theta) e^{alpha T}
    + sin(2 theta)) / sqrt(alpha^2 + omega^2), normalized by the
    eigenfunction norm.  The sin(omega T + theta) term vanishes at an exact
    root; it is kept so float roots stay faithful to the integral.
    """
    L = (
        -2.0 * np.cos(phase) * np.sin(omega * T + phase) * np.exp(alpha * T)
        + np.sin(2.0 * phase)
    ) / np.hypot(alpha, omega)  # sqrt(alpha^2 + omega^2) would overflow at short T
    return (4.0 * beta * beta / alpha) * L / np.sqrt(
        eigenfunction_norm_sq(omega, phase, T)
    )


def g_coefficients(x, spec: SystemSpec, T: float = 1.0, j_max: int = 200) -> np.ndarray:
    """The paper's series coefficients g_j: real projections of the drift
    function onto the normalized kernel eigenfunctions, one per entry of the
    kernel spectrum (channel-major, aligned with ``KernelSpectrum.gammas``).
    Both members of a conjugate pair carry a coefficient, so sums of squares
    need no multiplicity factor."""
    check_inputs(T, x=x)
    spectrum, vec = check_start(spec, x)
    ks = kernel_spectrum(spectrum, T, j_max)
    alpha, beta = spectrum.alphas[ks.k, None], spectrum.betas[ks.k, None]
    hat = _hat_g(alpha, ks.omega, ks.phase, T, beta)
    return (hat * np.sqrt(_overlaps_sq(vec, spectrum))[ks.k, None]).ravel()


def _series_terms(spectrum: Spectrum, T: float, j_max: int, theta: float):
    """The eigenvalue-series computation both oracles share, or None at and
    past theta = 1/gamma_1 of the truncated spectrum.

    Returns the rotation channels k, per channel the start-dependent exponent
    per unit |<x, U_k>|^2,

        c_k = theta q_k + (theta^2/2) sum_j hat_g_j^2 / (1 - theta gamma_j),
        q_k = (2 beta^2/alpha)(e^{2 alpha T} - 1),

    and the log-determinant sum log(1 - theta gamma) with its analytic
    tails.  The two members of a conjugate pair share their tail (only
    beta^2 enters), so each pair's tail is computed once and doubled.
    """
    ks = kernel_spectrum(spectrum, T, j_max)
    if ks.gamma_max > 0.0 and theta >= 1.0 / ks.gamma_max:
        return None
    alpha, beta = spectrum.alphas[ks.k], spectrum.betas[ks.k]
    hat = _hat_g(alpha[:, None], ks.omega, ks.phase, T, beta[:, None])
    w = np.sum(hat**2 / (1.0 - theta * ks.gamma), axis=1)
    q = 2.0 * beta * beta / alpha * np.expm1(2.0 * alpha * T)
    log_det = float(np.sum(np.log1p(-theta * ks.gamma))) + 2.0 * sum(
        log_det_tail(a, b, T, theta, j_max + 1) for a, b in spectrum.pairs if b > 0.0
    )
    return ks.k, theta * q + 0.5 * theta * (theta * w), log_det  # theta^2 w is 0, not NaN, at w = 0


def _channel_closed_form(
    alpha: float, beta: float, theta: float, T: float
) -> Optional[tuple[float, float]]:
    """(log w, p) of one channel: the Fredholm log-determinant
    sum_j log(1 - theta gamma_j) and the Riccati coefficient p.

    With a = |alpha|, both are written through s = e^{-mu T} sinh(mu T)/mu
    and c = e^{-mu T} cosh(mu T): b = c + a s, log w = (mu - a) T + log b,
    p = 2q s / b.  For mu^2 < 0 the factor e^{-mu T} is dropped and s, c
    become sin(nu T)/nu, cos(nu T).  b - 1 is formed without cancellation
    (c - 1 = expm1(-2 mu T)/2, so b - 1 = (a - mu) s = 2q s/(mu + a); and
    cos(nu T) - 1 = -2 sin^2(nu T/2)), and log b = log1p(b - 1): at short
    horizons both terms of log w are O(T) and cancel to an absolute error
    of eps T, not eps.  Returns None when rounding has carried b to its
    first zero, i.e. theta sits on the divergence threshold.
    """
    a = -alpha
    q = 4.0 * theta * beta * beta
    mu2 = alpha * alpha - 2.0 * q
    if mu2 > 0.0:
        mu = math.sqrt(mu2)
        s = -math.expm1(-2.0 * mu * T) / (2.0 * mu)
        shift = -2.0 * q * T / (mu + a)  # (mu - a) T without cancellation
        bm1 = 2.0 * q * s / (mu + a)
    elif mu2 < 0.0:
        nu = math.sqrt(-mu2)
        s = math.sin(nu * T) / nu
        shift = -a * T
        bm1 = a * s - 2.0 * math.sin(0.5 * nu * T) ** 2
    else:
        s, shift, bm1 = T, -a * T, a * T
    if not bm1 > -1.0:
        return None
    return shift + math.log1p(bm1), 2.0 * q * s / (1.0 + bm1)


def _channel_terms(spectrum: Spectrum, theta: float, T: float) -> Optional[list]:
    """(k, alpha_k, log w_k, p_k) per conjugate pair (its beta_k > 0 member,
    counted twice: only beta^2 and |<x, U_k>|^2 = |<x, conj U_k>|^2 enter),
    or None at +inf.

    With c = |alpha| T, y = -mu^2 T^2 = x^2 and y_1 = (omega_1 T)^2,
    theta gamma_1 - 1 = (y - y_1)/(c^2 + y_1), and b = cos x + c sin x/x falls
    from 1 + c to -1 on [0, pi^2] via 0 at y_1 (b > 1 + c at y < 0).  For
    u = eps/2, y errs by < 7 u (c^2 + |y|), 7 u c^2 from mu^2's cancellation
    (relative ~ eps (alpha^2 + 8 theta beta^2)/|mu^2|), and gamma_1 (a root,
    five roundings) by < 14 u: theta >= 1/gamma_1 is exact off |y - y_1| <=
    15 u (c^2 + pi^2), and dy = 32 u (c^2 + |y| + 10) covers both.  As |db/dy|
    = (sin x/x + c (sin x - x cos x)/x^3)/2 <= (1 + c/3)/2 on [0, pi^2] and b
    (y clamped there) errs by < 4 eps (c + 3), y + dy < 0, y - dy > pi^2 or
    |b| > (1 + c/3) dy/2 + 4 eps (c + 3) decides; else theta >= 1/gamma_1
    does.  Past c ~ 2e7 that band covers 1 + c, so mu^2 = 0 is a tie; in
    theta it stays below 2e-14.  b rounded to 0 at the tie also gives None.
    """
    terms, tie = [], False
    for k, (alpha, beta) in enumerate(spectrum.pairs):
        if not beta > 0.0:
            continue
        c = -float(alpha) * T
        y = 2.0 * (4.0 * theta * T * float(beta)) * (float(beta) * T) - c * c
        dy = 3.6e-15 * (c * c + abs(y) + 10.0)  # 32 u
        if not y + dy < 0.0:
            x = math.sqrt(min(max(y, 0.0), math.pi**2))
            b = math.cos(x) + c * math.sin(x) / x if x else 1.0 + c
            band = (1.0 + c / 3.0) * dy / 2.0 + 9e-16 * (c + 3.0)  # 4 eps (c + 3)
            if y - dy > math.pi**2 or b < -band:
                return None
            if not (b > band or tie):  # decided for all channels at once
                tie, gamma_1 = True, kernel_spectrum(spectrum, T, 1).gamma_max
                if gamma_1 > 0.0 and theta >= 1.0 / gamma_1:
                    return None
        closed = _channel_closed_form(alpha, beta, theta, T)
        if closed is None:
            return None
        terms.append((k, alpha, *closed))
    return terms


def conditional_mgf(q: MgfQuery, spec: SystemSpec) -> float:
    """E^x exp(theta * int_0^T |N Y_s|^2 ds), +inf at and past theta = 1/gamma_1.

    Closed form per channel, exp(sum_k [-log w_k + p_k |<x, U_k>|^2] / 2),
    from ``_channel_terms``: +inf by the sign of b, rooting only at the tie.
    ``q.lam`` and ``q.j_max`` are not used (see ``conditional_mgf_series``).
    p_k has the sign of theta, so a start whose overlaps overflow (|x| past
    ~1e154) gives +inf for theta > 0 and 0.0 for theta < 0.  Open case: a few
    ulp below 1/gamma_1, where rounding carries b to <= 0, the result is
    +inf although the true MGF is finite, of order b^(-1/2).  A grid of
    9 900 cases around the threshold met it 138 times, all 1 to 4 ulp below.
    """
    spectrum, vec = check_start(spec, q.x)
    if not spectrum.has_rotation or q.theta == 0.0:
        return 1.0
    terms = _channel_terms(spectrum, q.theta, q.T)
    if terms is None:
        return math.inf
    ov = _overlaps_sq(vec, spectrum)
    # each pair counts twice, which cancels the exponent's 1/2; p is 0 only where
    # theta beta^2 underflows (0 * inf would be NaN)
    log_mgf = sum((p * ov[k] if p else 0.0) - log_w for k, _, log_w, p in terms)
    if log_mgf > _LOG_HUGE:
        return math.inf
    return math.exp(log_mgf)


def cramer_finite_T(
    lam: float, spec: SystemSpec, T: float, j_max: int = 200
) -> float:
    """Finite-horizon scaled cumulant generating function at tilt lam.

    Averages the conditional MGF at theta = lam(1+lam)/2 over the
    stationary start law of the reduced process and takes (1/T) log:

        -(1/2T) sum_k [log w_k + log(1 - p_k/(2|alpha_k|))].

    Divergence — theta at or past 1/gamma_1, told by the sign of b as in
    ``conditional_mgf``, or some channel's p_k reaching 2|alpha_k| — is +inf,
    not an error.  ``j_max`` is not used (see ``cramer_finite_T_series``).
    As in ``conditional_mgf``, a few ulp below 1/gamma_1 a b rounded to
    <= 0 gives +inf where the true value is finite.
    """
    check_inputs(T, lam=lam)
    theta = 0.5 * lam * (1.0 + lam)
    spectrum = spectral_decompose(spec)
    if not spectrum.has_rotation or theta == 0.0:
        return 0.0
    terms = _channel_terms(spectrum, theta, T)
    if terms is None:
        return math.inf
    total = 0.0
    for _, alpha, log_w, p in terms:
        ratio = p / (-2.0 * alpha)
        if ratio >= 1.0:
            return math.inf
        total += log_w + math.log1p(-ratio)
    return -total / T  # each pair counts twice, which cancels the 1/(2T)


def conditional_mgf_series(q: MgfQuery, spec: SystemSpec) -> float:
    """Eigenvalue-series oracle for ``conditional_mgf``, truncated at q.j_max.

    Evaluated in the log domain as

        -1/2 [sum log(1 - theta gamma) + analytic tails] + sum_k c_k |<x, U_k>|^2

    with c_k from ``_series_terms``: theta q_k |<x, U_k>|^2 is theta times
    the mean ``s0`` less half the kernel trace, and its (theta^2/2) part is
    (theta^2/2) sum g^2/(1 - theta gamma).  Only the log-determinant and the
    g-quadratic carry truncation error (the latter's tail decays like j^-4
    and is left uncorrected).
    """
    spectrum, vec = check_start(spec, q.x)
    if not spectrum.has_rotation or q.theta == 0.0:
        return 1.0
    terms = _series_terms(spectrum, q.T, q.j_max, q.theta)
    if terms is None:
        return math.inf
    k, c, log_det = terms
    ov = _overlaps_sq(vec, spectrum)
    log_mgf = float(np.sum(c * ov[k])) - 0.5 * log_det
    if log_mgf > _LOG_HUGE:
        return math.inf
    return math.exp(log_mgf)


def cramer_finite_T_series(
    lam: float, spec: SystemSpec, T: float, j_max: int = 200
) -> float:
    """Eigenvalue-series oracle for ``cramer_finite_T``, truncated at j_max.

    Sums two parts (the difference of the closed-form trace terms that the
    stationary average also produces cancels identically and is omitted):

      I2  per-channel Gaussian integral of the start-dependent exponent,
          -1/(2T) sum_k log(1 - c_k/|alpha_k|),
      I3  -1/(2T) times the log-determinant with its analytic tail.
    """
    check_inputs(T, lam=lam)
    theta = 0.5 * lam * (1.0 + lam)
    spectrum = spectral_decompose(spec)
    if not spectrum.has_rotation:
        return 0.0
    terms = _series_terms(spectrum, T, j_max, theta)
    if terms is None:
        return math.inf
    k, c, log_det = terms
    alpha = spectrum.alphas[k]
    if np.any(c >= -alpha):  # |alpha_k| for a stable drift
        return math.inf
    return -(float(np.sum(np.log1p(c / alpha))) + log_det) / (2.0 * T)
