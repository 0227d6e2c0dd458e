"""Asymptotic Cramer function, its domain, and the rate function.

Everything here is a function of the drift spectrum alone.  With
ell(lambda) = 4 lambda (1 + lambda),

    Lambda(lambda) = -1/2 sum_k ( sqrt(alpha_k^2 - ell(lambda) beta_k^2)
                                  + alpha_k )

on the closed interval [a, b] determined by m = min_{beta_k != 0}
alpha_k^2 / beta_k^2 via a,b = -1/2 -/+ 1/2 sqrt(1+m), and +infinity
outside.  Only the rotating channels enter, through constants computed once
per spectrum.  The rate function is evaluated in closed form through the
substitution ell: I(x) = lambda(ell0(x)) x + F(ell0(x)) where ell0(x) is the
unique root in [-1, m) of |x| = sqrt(1+ell) sum_k beta_k^2 / sqrt(alpha_k^2 -
ell beta_k^2), found by one safeguarded Newton iteration over an array of
levels; an independent Legendre-search oracle (grid + golden section on
lambda x - Lambda(lambda)) cross-checks it.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, NumericError, ReversibilityError
from .model import Spectrum, check_real

__all__ = [
    "CramerDomain", "CramerCurve", "RatePoint", "cramer_domain", "cramer",
    "cramer_curve", "cramer_derivative", "rate", "legendre_oracle",
    "symmetry_residuals",
]

_RADICAND_CLAMP = 1e-14
_ELL_SHIFT = 1e-15
_NEWTON_TOL = 1e-8  # a logit step this small lands within rounding of the root
_RESIDUAL_TOL = 1e-12  # absolute floor of the accepted |x|(ell0) - |x|
_LEGENDRE_GRID = 2001  # legendre_oracle's coarse grid: >= 1000 points keep it within ~1e-6


@dataclasses.dataclass(frozen=True)
class CramerDomain:
    """Finiteness interval [a, b] of Lambda; a + b = -1 exactly in exact
    arithmetic, and 4 lambda (1 + lambda) = m at both endpoints."""

    m: float
    a: float
    b: float


@dataclasses.dataclass(frozen=True, eq=False)
class CramerCurve:
    """Lambda sampled on a grid; +inf outside [a, b].  ``derivative`` (when
    requested) is finite strictly inside, -inf/+inf at the endpoints, NaN
    outside."""

    lambda_grid: np.ndarray
    values: np.ndarray
    derivative: Optional[np.ndarray] = None


@dataclasses.dataclass(frozen=True)
class RatePoint:
    """Closed-form rate evaluation at one EPR level x."""

    x: float
    ell0: float
    I: float
    residual: float


class _Channels:
    """Constants of the rotating channels of one spectrum; a real channel
    adds sqrt(alpha^2) + alpha = 0 to Lambda and nothing to the sums."""

    def __init__(self, spectrum: Spectrum) -> None:
        rot = spectrum.betas != 0.0
        if not np.any(rot):
            raise ReversibilityError(
                "all channels are real (drift symmetric): Lambda/I are degenerate")
        self.alpha2, self.beta2 = spectrum.alphas[rot] ** 2, spectrum.betas[rot] ** 2
        ratio = self.alpha2 / self.beta2
        m = float(np.min(ratio))
        # b = (sqrt(1+m) - 1)/2, written so it stays exact for m far below 1
        b = 0.5 * m / (1.0 + math.sqrt(1.0 + m))
        self.dom = CramerDomain(m=m, a=-1.0 - b, b=b)
        self.alpha_sum = float(np.sum(spectrum.alphas[rot]))
        # Radicands within `clamp` of 0 are 0.  1e-14 alpha_k^2 bounds the
        # rounding of alpha_k^2 - ell beta_k^2 where it is near 0 (there
        # ell beta_k^2 <= alpha_k^2), and 1e-15 beta_k^2 the shift of ell when
        # fl(-1-lambda) rounds (4 |1+2 lambda| |1+lambda| 2^-53 < 1e-15 for
        # m <= 1; the first term covers larger m).  The floor scales with each
        # channel, so radicands far below 1 (alpha_k -> 0) stay exact.
        self.clamp = _RADICAND_CLAMP * self.alpha2 + _ELL_SHIFT * self.beta2
        # alpha_k^2 - m beta_k^2, exactly 0 on the channels that set m.
        self.gap = np.where(ratio == m, 0.0, np.maximum(self.alpha2 - m * self.beta2, 0.0))
        # ell0's first upper bracket, and |x| there and at ell = (m - 1)/2.
        self.top = m * (1.0 - 1e-15) if m > 0 else m - 1e-15
        ells = np.array([self.top, 0.5 * (m - 1.0)])
        self.top_level, self.level_mid = _level(self, 1.0 + ells, m - ells)[0].tolist()


def _channels(spectrum: Spectrum) -> _Channels:
    """The rotating channels' constants, computed once per spectrum and kept
    on it (the spectrum is frozen, so they cannot go stale)."""
    if "_cramer_channels" not in vars(spectrum):
        object.__setattr__(spectrum, "_cramer_channels", _Channels(spectrum))
    return spectrum._cramer_channels


def cramer_domain(spectrum: Spectrum) -> CramerDomain:
    """Domain data (m, a, b) of the Cramer function."""
    return _channels(spectrum).dom


def _radicands(ch: _Channels, ell) -> tuple[np.ndarray, np.ndarray]:
    """alpha_k^2 - ell beta_k^2 (one row per ell) with values within the
    channel's clamp of 0 set to exactly 0, and whether each row lies in the
    domain (no radicand below minus the clamp; False for a NaN ell).

    At the domain endpoints the minimizing channel's radicand is exactly 0
    analytically but lands a few ulps off in floats; the two-sided clamp
    removes the sqrt's infinite slope there, which keeps boundary values
    exact and the lambda <-> -1-lambda symmetry at machine precision.
    Deciding membership on the radicands admits the 1-ulp excursions of
    fl(-1-lambda) past the float endpoints.
    """
    r = ch.alpha2 - np.multiply.outer(ell, ch.beta2)
    return np.where(r <= ch.clamp, 0.0, r), (r >= -ch.clamp).all(axis=-1)


def _F(ch: _Channels, radicands) -> np.ndarray:
    """F(ell) = 1/2 sum_k (sqrt(r_k) + alpha_k) = -Lambda(lambda) from the radicands r_k."""
    return 0.5 * (np.sqrt(radicands).sum(axis=-1) + ch.alpha_sum)


def _cramer_values(ch: _Channels, lambdas) -> np.ndarray:
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if np.isnan(lambdas).any():
        raise DomainError("lambda is NaN")
    r, inside = _radicands(ch, 4.0 * lambdas * (1.0 + lambdas))
    return np.where(inside, -_F(ch, r), math.inf)


def cramer(lam: float, spectrum: Spectrum) -> float:
    """Cramer function Lambda(lambda); +inf outside [a, b]."""
    lam = check_real("lambda", lam)
    return float(_cramer_values(_channels(spectrum), lam)[0])


def cramer_curve(spectrum: Spectrum, lambdas: Sequence[float],
                 with_derivative: bool = False) -> CramerCurve:
    """Evaluate Lambda (and optionally Lambda', in one array expression) on a grid."""
    ch = _channels(spectrum)
    grid = np.asarray(lambdas, dtype=float)
    deriv = None
    if with_derivative:
        deriv = np.full(grid.shape, math.nan)
        interior = (grid > ch.dom.a) & (grid < ch.dom.b)
        lam = grid[interior]
        r, _ = _radicands(ch, 4.0 * lam * (1.0 + lam))
        with np.errstate(divide="ignore"):  # +-inf where a radicand clamps to 0
            deriv[interior] = (1.0 + 2.0 * lam) * (ch.beta2 / np.sqrt(r)).sum(axis=-1)
        deriv[grid == ch.dom.a] = -math.inf
        deriv[grid == ch.dom.b] = math.inf
    return CramerCurve(lambda_grid=grid, values=_cramer_values(ch, grid), derivative=deriv)


def cramer_derivative(lam: float, spectrum: Spectrum) -> float:
    """Lambda'(lambda) = (1+2 lambda) sum_k beta_k^2 / sqrt(alpha_k^2 -
    4 lambda(1+lambda) beta_k^2), defined strictly inside (a, b); diverges
    toward the endpoints (steepness)."""
    dom = cramer_domain(spectrum)
    if not (dom.a < lam < dom.b):
        raise DomainError(f"lambda={lam} outside the open interval ({dom.a}, {dom.b})")
    return float(cramer_curve(spectrum, [lam], with_derivative=True).derivative[0])


def _level(ch: _Channels, w, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|x| = sqrt(w) S at 1 + ell = w, m - ell = v, S = sum_k beta_k^2 / sqrt(r_k)
    and D = 2 dS/dell, with r_k = (alpha_k^2 - m beta_k^2) + beta_k^2 v exact
    up to the pole at ell = m."""
    r = ch.gap + np.multiply.outer(v, ch.beta2)
    q = ch.beta2 / np.sqrt(r)
    S = q.sum(axis=-1)
    return np.sqrt(w) * S, S, (q * ch.beta2 / r).sum(axis=-1)


def _solve(ch: _Channels, xs: np.ndarray):
    """ell0, I and the residual |x|(ell0) - |x| for every level in xs."""
    t = np.abs(xs)
    if not np.isfinite(t).all():
        raise DomainError("EPR level x must be finite")
    ell, v, resid = np.full(xs.shape, -1.0), np.full(xs.shape, 1.0 + ch.dom.m), np.zeros(xs.shape)
    todo = t > 1e-12
    if todo.any():
        ell[todo], v[todo], resid[todo] = _newton(ch, t[todo])
    bad = ~(np.abs(resid) <= np.maximum(_RESIDUAL_TOL, 1e-9 * np.maximum(1.0, t)))
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericError(f"ell0 solve residual {resid[i]:.3e} above tolerance at x={xs[i]}")
    # lambda's + branch as ell0 / (2 (1 + sqrt(1+ell0))) and F from the unclamped
    # radicands at v = m - ell0 stay exact when alpha^2 and ell0 are far below 1.
    root = np.sqrt(1.0 + ch.dom.m - v)
    lam = np.where(xs >= 0, ell / (2.0 * (1.0 + root)), -0.5 * (1.0 + root))
    I = np.where(todo, lam * xs, 0.0) + _F(ch, ch.gap + np.multiply.outer(v, ch.beta2))
    if (I < -1e-10).any():
        i = int(np.argmax(I < -1e-10))
        raise NumericError(f"rate evaluated negative ({I[i]:.3e}) at x={xs[i]}")
    return ell, np.maximum(I, 0.0), resid


def _newton(ch: _Channels, t: np.ndarray):
    """Roots ell0 of |x|(ell) = t > 0, with m - ell0 and the residuals.

    The bracket [-1, hi] has hi = m (1 - 1e-15), moved toward m geometrically
    while |x|(hi) < t (the right side diverges at m, so a bracket always
    exists).  Newton steps are taken on log |x| in the logit coordinate
    z = log((1+ell)/(m-ell)), in which it is nearly linear with slope 1/2
    at both ends (exactly so for a single rotation pair); the start is that
    line through the midpoint ell = (m-1)/2.  A step that leaves [lo, hi] is
    replaced by bisection.  The iterate is carried as 1 + ell and m - ell,
    which resolve ell0 near -1 and near m far below one ulp of ell.
    """
    m = ch.dom.m
    tops, top_levels = [ch.top], [ch.top_level]
    while top_levels[-1] < t.max():
        new_hi = m - (m - tops[-1]) / 16.0
        if new_hi <= tops[-1] or len(tops) > 80:
            raise NumericError("could not bracket ell0 below m")
        tops.append(new_hi)
        top_levels.append(float(_level(ch, 1.0 + new_hi, m - new_hi)[0]))
    hi = np.array(tops)[np.searchsorted(top_levels, t)]
    lo = np.full(t.shape, -1.0)
    s = (t / ch.level_mid) ** 2  # e^z at the start
    v = (1.0 + m) / (1.0 + s)
    w = s * v
    ell = np.where(w < v, w - 1.0, m - v)
    with np.errstate(all="ignore"):
        for _ in range(100):
            g, S, D = _level(ch, w, v)
            below = g < t
            lo = np.where(below, ell, lo)
            hi = np.where(below, hi, ell)
            # d log|x| / dz = (1 + w D / S) v / (2 (1 + m)); the logit step
            # dz maps (w, v) to (p, v) / (v + p) (1 + m) with p = w e^-dz.
            dz = np.log(g / t) * (2.0 * (1.0 + m)) / ((1.0 + w * D / S) * v)
            p = w * np.exp(-dz)
            w_new, v_new = (1.0 + m) * p / (v + p), (1.0 + m) * v / (v + p)
            ell_new = np.where(w_new < v_new, w_new - 1.0, m - v_new)
            out = ~((ell_new >= lo) & (ell_new <= hi))
            if out.any():  # bisect where the step leaves the bracket
                ell_new[out] = mid = 0.5 * (lo[out] + hi[out])
                w_new[out], v_new[out] = 1.0 + mid, m - mid
            ell, w, v = ell_new, w_new, v_new
            if not out.any() and (np.abs(dz) <= _NEWTON_TOL).all():
                break
    return ell, v, _level(ch, w, v)[0] - t


def rate(x: float, spectrum: Spectrum) -> RatePoint:
    """Closed-form rate function I(x) = lambda(ell0) x + F(ell0).

    x = 0 (within 1e-12) short-circuits to ell0 = -1 exactly; otherwise the
    safeguarded Newton iteration of ``_newton`` solves for ell0(x).  A
    residual above max(1e-12, 1e-9 max(1, |x|)) or a negative rate raises
    :class:`NumericError`; a level that is not a finite real number raises
    :class:`DomainError`.
    """
    x = check_real("EPR level x", x)
    ell, I, resid = _solve(_channels(spectrum), np.array([x]))
    return RatePoint(x, float(ell[0]), float(I[0]), float(resid[0]))


def legendre_oracle(x: float, spectrum: Spectrum) -> float:
    """Independent Legendre-transform search sup_{lambda in [a,b]}
    (lambda x - Lambda(lambda)): a coarse grid of _LEGENDRE_GRID points,
    then golden-section polish.

    Evaluates only grid/golden points, so the result never exceeds the true
    supremum; it is within ~1e-6 of it.  It never calls the ell0 solver.
    A level that is not a finite real number raises :class:`DomainError`,
    as in :func:`rate`.
    """
    x = check_real("EPR level x", x)
    if not math.isfinite(x):
        raise DomainError(f"EPR level x must be finite, got {x!r}")
    ch = _channels(spectrum)

    def f(lam):  # lambda x - Lambda(lambda) = lambda x + F(ell)
        # radicands from m - ell = 4 (b - lambda)(lambda - a) >= 0, as in
        # _level: exact near both endpoints, so no clamp is needed
        v = 4.0 * (ch.dom.b - lam) * (lam - ch.dom.a)
        return lam * x + _F(ch, ch.gap + np.multiply.outer(v, ch.beta2))

    grid = np.linspace(ch.dom.a, ch.dom.b, _LEGENDRE_GRID)
    vals = f(grid)
    i = int(np.argmax(vals))
    best = float(vals[i])
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, _LEGENDRE_GRID - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(100):
        if fc > fd:
            hi, d, fd, c = d, c, fc, d - invphi * (d - lo)
            fc = f(c)
        else:
            lo, c, fc, d = c, d, fd, c + invphi * (hi - c)
            fd = f(d)
        # Lambda bends on the scale of b ~ m/4 next to b, far below 1 as m -> 0
        if hi - lo <= 1e-14 * max(1.0, abs(hi)) * min(1.0, ch.dom.m):
            break
    return max(best, fc, fd)


def symmetry_residuals(spectrum: Spectrum, lambda_grid: Sequence[float],
                       x_grid: Sequence[float]) -> tuple[float, float]:
    """Fluctuation-symmetry residuals (max |Lambda(l) - Lambda(-1-l)|,
    max |I(x) - I(-x) + x|) over the given grids; empty grids give 0."""
    lam, xs = (np.asarray(grid, dtype=float) for grid in (lambda_grid, x_grid))
    res1 = res2 = 0.0
    if lam.size:
        v1 = _cramer_values(_channels(spectrum), lam)
        v2 = _cramer_values(_channels(spectrum), -1.0 - lam)
        res1 = float(np.max(np.where(np.isinf(v1) & np.isinf(v2), 0.0, np.abs(v1 - v2))))
    if xs.size:
        _, I, _ = _solve(_channels(spectrum), np.concatenate([xs, -xs]))
        res2 = float(np.max(np.abs(I[: xs.size] - I[xs.size:] + xs)))
    return res1, res2
