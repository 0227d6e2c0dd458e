"""Asymptotic Cramer function, its domain, and the rate function.

Everything here is a function of the drift spectrum alone.  With
ell(lambda) = 4 lambda (1 + lambda),

    Lambda(lambda) = -1/2 sum_k ( sqrt(alpha_k^2 - ell(lambda) beta_k^2)
                                  + alpha_k )

on the closed interval [a, b] determined by m = min_{beta_k != 0}
alpha_k^2 / beta_k^2 via a,b = -1/2 -/+ 1/2 sqrt(1+m), and +infinity
outside.  Only the rotating channels enter, through constants computed once
per spectrum, one row per conjugate pair (both members add the same term).
The rate function is evaluated in closed form through the substitution
ell: I(x) = lambda(ell0(x)) x + F(ell0(x)) where ell0(x) is the unique root
in [-1, m) of |x| = sqrt(1+ell) sum_k beta_k^2 / sqrt(alpha_k^2 - ell
beta_k^2), found per |x| by one safeguarded scalar Newton iteration on
Python floats (x and -x differ only in the branch of lambda).  An
independent Legendre-search oracle cross-checks it: the maximum of the
concave lambda x - Lambda(lambda) over a 65-point grid on [a, b], polished
on the two grid cells around it by Brent's derivative-free minimiser
(parabolic steps, golden-section fallback).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, NumericError, ReversibilityError
from .model import Spectrum, check_real, check_type

__all__ = [
    "CramerDomain", "CramerCurve", "RatePoint", "cramer_domain", "cramer",
    "cramer_curve", "rate", "legendre_oracle",
    "symmetry_residuals",
]

_RADICAND_CLAMP = 1e-14
_ELL_SHIFT = 1e-15
_NEWTON_TOL = 1e-8  # a logit step this small lands within rounding of the root
_RESIDUAL_TOL = 1e-12  # absolute floor of the accepted |x|(ell0) - |x|
_LEGENDRE_GRID = 65  # legendre_oracle's coarse grid: f is concave, so any grid brackets its maximum
_BRENT_RTOL = 1.5e-8  # ~sqrt(eps): past it the objective's values tie within rounding
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
# i/64 for i = 0..64: a + (b - a) * _LEGENDRE_STEPS is np.linspace(a, b, 65) bit for bit
_LEGENDRE_STEPS = np.arange(_LEGENDRE_GRID) / (_LEGENDRE_GRID - 1)


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
    """Constants of the rotating channels of one spectrum, one row per
    conjugate pair (its beta > 0 member, weighted by 2); a real channel adds
    sqrt(alpha^2) + alpha = 0 to Lambda and nothing to the sums."""

    def __init__(self, spectrum: Spectrum) -> None:
        rot = spectrum.betas > 0.0
        if not np.any(rot):
            raise ReversibilityError(
                "the drift is reversible (A is symmetric), so the entropy production "
                "rate is identically 0 and has no large-deviation curves")
        self.alpha2, self.beta2 = spectrum.alphas[rot] ** 2, spectrum.betas[rot] ** 2
        ratio = self.alpha2 / self.beta2
        m = float(np.min(ratio))
        # b = (sqrt(1+m) - 1)/2, written so it stays exact for m far below 1
        b = 0.5 * m / (1.0 + math.sqrt(1.0 + m))
        self.dom = CramerDomain(m=m, a=-1.0 - b, b=b)
        self.alpha_sum = float(np.sum(spectrum.alphas[rot]))  # over the pairs
        # Radicands within `clamp` of 0 are 0.  1e-14 alpha_k^2 bounds the
        # rounding of alpha_k^2 - ell beta_k^2 where it is near 0 (there
        # ell beta_k^2 <= alpha_k^2), and 1e-15 beta_k^2 the shift of ell when
        # fl(-1-lambda) rounds (4 |1+2 lambda| |1+lambda| 2^-53 < 1e-15 for
        # m <= 1; the first term covers larger m).  The floor scales with each
        # channel, so radicands far below 1 (alpha_k -> 0) stay exact.
        self.clamp = _RADICAND_CLAMP * self.alpha2 + _ELL_SHIFT * self.beta2
        # alpha_k^2 - m beta_k^2, exactly 0 on the channels that set m.
        self.gap = np.where(ratio == m, 0.0, np.maximum(self.alpha2 - m * self.beta2, 0.0))
        # (gap_k, beta_k^2) per pair as Python floats: _level's and _F_at's sums
        # over d/2 pairs cost less in Python arithmetic than in numpy dispatch.
        self.pairs = tuple(zip(self.gap.tolist(), self.beta2.tolist()))
        # ell0's first upper bracket, as m - ell, and |x| there and at ell = (m - 1)/2.
        top, mid = (m * (1.0 - 1e-15) if m > 0 else m - 1e-15), 0.5 * (m - 1.0)
        self.v_top = m - top
        self.top_level = _level(self, 1.0 + top, self.v_top)[0]
        self.level_mid = _level(self, 1.0 + mid, m - mid)[0]


def _channels(spectrum: Spectrum) -> _Channels:
    """The rotating channels' constants, computed once per spectrum and kept
    on it (the spectrum is frozen, so they cannot go stale); a non-Spectrum is a DataError."""
    if "_cramer_channels" not in vars(check_type(spectrum, Spectrum)):
        object.__setattr__(spectrum, "_cramer_channels", _Channels(spectrum))
    return spectrum._cramer_channels


def cramer_domain(spectrum: Spectrum) -> CramerDomain:
    """Domain data (m, a, b) of the Cramer function."""
    return _channels(spectrum).dom


def _F(ch: _Channels, roots) -> np.ndarray:
    """F(ell) = sum_pairs (sqrt(r_k) + alpha_k) = -Lambda(lambda) from the roots sqrt(r_k)."""
    return roots.sum(axis=-1) + ch.alpha_sum


def _real_grid(name: str, values) -> np.ndarray:
    """``values`` as a float array; :class:`DomainError` unless its dtype is real."""
    try:
        grid = np.asarray(values)
    except ValueError as exc:  # a ragged nesting
        raise DomainError(f"{name} is not an array of real numbers: {exc}") from exc
    if grid.dtype.kind not in "fiu":
        raise DomainError(f"{name} must hold real numbers, got dtype {grid.dtype}")
    return grid.astype(float, copy=False)


def _cramer_values(ch: _Channels, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lambda on the float array ``grid`` (+inf outside [a, b]; NaN raises)
    and the roots sqrt(r_k) of the radicands r_k = alpha_k^2 - ell beta_k^2,
    one row per lambda, with values within the channel's clamp of 0 set to
    exactly 0.  lambda lies in the domain when no radicand is below minus
    the clamp.

    At the domain endpoints the minimizing channel's radicand is exactly 0
    analytically but lands a few ulps off in floats; the two-sided clamp
    removes the sqrt's infinite slope there, which keeps boundary values
    exact and the lambda <-> -1-lambda symmetry at machine precision.
    Deciding membership on the radicands admits the 1-ulp excursions of
    fl(-1-lambda) past the float endpoints.
    """
    if np.isnan(grid).any():
        raise DomainError("lambda is NaN")
    with np.errstate(over="ignore"):  # ell or ell beta_k^2 = +inf only far outside [a, b]
        r = ch.alpha2 - np.multiply.outer(4.0 * grid * (1.0 + grid), ch.beta2)
    roots = np.sqrt(np.where(r <= ch.clamp, 0.0, r))
    return np.where((r >= -ch.clamp).all(axis=-1), -_F(ch, roots), math.inf), roots


def cramer(lam: float, spectrum: Spectrum) -> float:
    """Cramer function Lambda(lambda); +inf outside [a, b]."""
    lam = check_real("lambda", lam)
    return float(_cramer_values(_channels(spectrum), np.array([lam]))[0][0])


def cramer_curve(spectrum: Spectrum, lambdas: Sequence[float],
                 with_derivative: bool = False) -> CramerCurve:
    """Evaluate Lambda on a grid and, with ``with_derivative``, from the same
    radicands Lambda' = (1+2 lambda) sum_k beta_k^2 / sqrt(alpha_k^2 -
    4 lambda(1+lambda) beta_k^2), which diverges toward a and b (steepness).
    A grid whose dtype is not real raises :class:`DomainError`."""
    ch = _channels(spectrum)
    grid = _real_grid("lambda grid", lambdas)
    values, roots = _cramer_values(ch, grid)
    deriv = None
    if with_derivative:
        deriv = np.full(grid.shape, math.nan)
        interior = (grid > ch.dom.a) & (grid < ch.dom.b)
        with np.errstate(divide="ignore"):  # +-inf where a radicand clamps to 0
            deriv[interior] = ((2.0 * (1.0 + 2.0 * grid[interior]))
                               * (ch.beta2 / roots[interior]).sum(axis=-1))
        deriv[grid == ch.dom.a] = -math.inf
        deriv[grid == ch.dom.b] = math.inf
    return CramerCurve(lambda_grid=grid, values=values, derivative=deriv)


def _level(ch: _Channels, w: float, v: float) -> tuple[float, float, float]:
    """|x| = 2 sqrt(w) S at 1 + ell = w, m - ell = v, S = sum_pairs beta_k^2 /
    sqrt(r_k) and D = 2 v dS/dell, with r_k = (alpha_k^2 - m beta_k^2) +
    beta_k^2 v exact and D finite up to the pole at ell = m."""
    S = D = 0.0
    for gap, b2 in ch.pairs:
        r = gap + v * b2
        q = b2 / math.sqrt(r)
        S += q
        D += q * (v * b2 / r)
    return 2.0 * math.sqrt(w) * S, S, D


def _F_at(ch: _Channels, v: float) -> float:
    """F = -Lambda at m - ell = v, with the radicands r_k = (alpha_k^2 -
    m beta_k^2) + beta_k^2 v of :func:`_level`."""
    return sum(math.sqrt(gap + v * b2) for gap, b2 in ch.pairs) + ch.alpha_sum


def _solve(ch: _Channels, t: float) -> tuple[float, float, float, float, float]:
    """ell0, lambda(ell0) for x >= 0 and x < 0, F(ell0) and the residual
    |x|(ell0) - t, shared by the levels x = +-t.

    t = 0 (within 1e-12 of the level scale |x|(ell = (m-1)/2)) short-circuits
    to ell0 = -1 exactly, with both lambdas 0 (I = F(-1)).  Otherwise the
    bracket [-1, hi] starts at m - hi = 1e-15 m, divided by 16 while |x|(hi)
    < |x| (|x| diverges at m; once beta_k^2 (m - hi) underflows, the level
    raises :class:`DomainError`).  Newton steps are taken on log |x| in the
    logit coordinate z = log((1+ell)/(m-ell)), nearly linear with slope 1/2
    at both ends (exactly so for a single rotation pair); the start is that
    line through ell = (m-1)/2, or hi if it lies past hi or underflows to
    ell = -1.  A step that leaves the bracket is replaced by bisection.  The
    iterate and both ends are carried as 1 + ell and m - ell, which resolve
    ell0 near -1 and near m far below one ulp of ell.
    """
    m = ch.dom.m
    if not math.isfinite(t):
        raise DomainError("EPR level x must be finite")
    if t <= 1e-12 * ch.level_mid:
        return -1.0, 0.0, 0.0, _F_at(ch, 1.0 + m), 0.0
    v_hi, g = ch.v_top, ch.top_level
    while g < t:
        if v_hi / 16.0 * min(b2 for _, b2 in ch.pairs) == 0.0:
            raise DomainError(f"EPR level |x| = {t:.3e} exceeds {g:.3e}, the largest resolved")
        v_hi /= 16.0
        g = _level(ch, 1.0 + (m - v_hi), v_hi)[0]
    w_lo, v_lo, w_hi = 0.0, 1.0 + m, 1.0 + (m - v_hi)
    s = (t / ch.level_mid) * (t / ch.level_mid)  # e^z at the start (** raises on overflow)
    v = (1.0 + m) / (1.0 + s)
    w = s * v
    if not (v >= v_hi and w > 0.0):
        w, v = w_hi, v_hi
    for _ in range(100):
        g, S, D = _level(ch, w, v)
        if g < t:
            w_lo, v_lo = w, v
        else:
            w_hi, v_hi = w, v
        # d log|x| / dz = (v + w D / S) / (2 (1 + m)); the logit step dz maps (w, v)
        # to (p, v) / (v + p) (1 + m) with p = w e^-dz, capped below overflow
        dz = math.log(g / t) * (2.0 * (1.0 + m)) / (v + w * D / S)
        p = w * math.exp(min(-dz, 700.0))
        w_new, v_new = (1.0 + m) * p / (v + p), (1.0 + m) * v / (v + p)
        if abs(dz) <= _NEWTON_TOL:  # a rounding-sized step may leave a collapsed bracket
            w, v = w_new, v_new
            break
        # compared in the coordinate that resolves ell: 1 + ell below the middle, m - ell above
        if (0.0 < w_new and w_lo <= w_new <= w_hi) if w_new < v_new else v_hi <= v_new <= v_lo:
            w, v = w_new, v_new
        else:  # bisect where the step leaves the bracket (or is NaN)
            w, v = 0.5 * (w_lo + w_hi), 0.5 * (v_lo + v_hi)
    resid = _level(ch, w, v)[0] - t
    if not abs(resid) <= max(_RESIDUAL_TOL, 1e-9 * max(1.0, t)):
        raise NumericError(f"ell0 solve residual {resid:.3e} above tolerance at |x|={t}")
    # lambda's + branch as ell0 / (2 (1 + sqrt(1+ell0))) and F from the unclamped
    # radicands at v = m - ell0 stay exact when alpha^2 and ell0 are far below 1.
    ell, root = (w - 1.0 if w < v else m - v), math.sqrt(1.0 + m - v)
    return ell, ell / (2.0 * (1.0 + root)), -0.5 * (1.0 + root), _F_at(ch, v), resid


def _rate_at(ch: _Channels, x: float, solved: tuple) -> float:
    """I(x) = lambda x + F from ``_solve(ch, |x|)``, on x's branch of lambda."""
    _, lam_pos, lam_neg, F, _ = solved
    lx = (lam_pos if x >= 0 else lam_neg) * x
    I = lx + F
    # at the mean EPR, I and F cancel to the rounding of lambda x, sqrt(r_k) and alpha_k
    if I < -1e-10 * (abs(lx) + abs(F) + 2.0 * abs(ch.alpha_sum)):
        raise NumericError(f"rate evaluated negative ({I:.3e}) at x={x}")
    return max(I, 0.0)


def rate(x: float, spectrum: Spectrum) -> RatePoint:
    """Closed-form rate function I(x) = lambda(ell0) x + F(ell0).

    x = 0 (|x| within 1e-12 of the system's level scale) short-circuits to
    ell0 = -1 exactly; otherwise one scalar safeguarded Newton iteration
    (``_solve``) solves for ell0(|x|).  A residual above max(1e-12, 1e-9
    max(1, |x|)) or a rate below -1e-10 (|lambda x| + |F| + |sum alpha_k|)
    raises :class:`NumericError`; a level that is not a finite real number,
    or too large to resolve ell0 below m, raises :class:`DomainError`.
    """
    x = check_real("EPR level x", x)
    ch = _channels(spectrum)
    solved = _solve(ch, abs(x))
    return RatePoint(x, solved[0], _rate_at(ch, x, solved), solved[4])


def legendre_oracle(x: float, spectrum: Spectrum) -> float:
    """Independent Legendre-transform search sup_{lambda in [a,b]}
    (lambda x - Lambda(lambda)): the best of _LEGENDRE_GRID grid points,
    polished on the two grid cells around it (they bracket the maximum, the
    objective being concave) by Brent's method (Algorithms for Minimization
    without Derivatives, 1973, ch. 5) to 1.5e-8 min(1, m) max(1, |lambda|)
    or 4 ulp of lambda: a median of about 10 objective evaluations, up to
    ~80 where the maximum sits within rounding of an end of [a, b].

    Returns the largest value at a point it evaluated, so the result never
    exceeds the true supremum; it is within ~1e-6 of it.  It is
    derivative-free and never calls the ell0 solver.  Where lambda x
    overflows on the grid (|x| near the double range) the value is +inf.  A
    level that is not a finite real number raises :class:`DomainError`, as
    in :func:`rate`.
    """
    x = check_real("EPR level x", x)
    if not math.isfinite(x):
        raise DomainError(f"EPR level x must be finite, got {x!r}")
    ch = _channels(spectrum)
    a, b = ch.dom.a, ch.dom.b
    # lambda x - Lambda(lambda) = lambda x + F at m - ell = 4 (b - lambda)(lambda - a)
    # >= 0: exact near both endpoints, as in _level, so no clamp is needed
    grid = a + (b - a) * _LEGENDRE_STEPS
    grid[-1] = b
    radicands = ch.gap + np.multiply.outer(4.0 * (b - grid) * (grid - a), ch.beta2)
    with np.errstate(over="ignore"):  # lambda x is +-inf past the double range
        vals = grid * x + _F(ch, np.sqrt(radicands))
    best = float(np.max(vals))
    if best == math.inf:
        return best

    def g(lam: float) -> float:  # minimised: -(lambda x - Lambda(lambda))
        return -(lam * x + _F_at(ch, 4.0 * (b - lam) * (lam - a)))

    # Brent: parabolic steps through the three best points lam, w and v, a golden-
    # section step where the parabola leaves [lo, hi] or fails to halve the step
    # before last.  Starting in the middle of three grid points keeps lam strictly
    # inside [lo, hi], which then shrinks on every step until rounding stops it.
    i = min(max(int(np.argmax(vals)), 1), _LEGENDRE_GRID - 2)
    (lo, lam, hi), (f_lo, f_lam, f_hi) = grid[i - 1:i + 2].tolist(), (-vals[i - 1:i + 2]).tolist()
    (w, fw), (v, fv) = sorted(((lo, f_lo), (hi, f_hi)), key=lambda p: p[1])
    d = e = hi - lo
    rtol = _BRENT_RTOL * min(1.0, ch.dom.m)  # Lambda bends on the scale of m as m -> 0
    for _ in range(100):
        mid, tol = 0.5 * (lo + hi), max(rtol * max(1.0, abs(lam)), 4.0 * math.ulp(lam))
        if abs(lam - mid) <= 2.0 * tol - 0.5 * (hi - lo):
            break
        r, q = (lam - w) * (f_lam - fv), (lam - v) * (f_lam - fw)
        p, q = (lam - v) * q - (lam - w) * r, 2.0 * (q - r)
        p, q = (-p, q) if q > 0.0 else (p, -q)
        if abs(e) > tol and abs(p) < abs(0.5 * q * e) and q * (lo - lam) < p < q * (hi - lam):
            e, d = d, p / q
            if min(lam + d - lo, hi - lam - d) < 2.0 * tol:
                d = tol if lam < mid else -tol
        else:
            e = (lo if lam >= mid else hi) - lam
            d = _GOLDEN * e
        u = lam + (d if abs(d) >= tol else math.copysign(tol, d))
        fu, width = g(u), hi - lo
        if fu <= f_lam:
            lo, hi = (lo, lam) if u < lam else (lam, hi)
            (v, fv), (w, fw), (lam, f_lam) = (w, fw), (lam, f_lam), (u, fu)
        else:
            lo, hi = (u, hi) if u < lam else (lo, u)
            if fu <= fw or w == lam:
                (v, fv), (w, fw) = (w, fw), (u, fu)
            elif fu <= fv or v == lam or v == w:
                v, fv = u, fu
        if hi - lo >= width:  # the bracket stopped shrinking at the float spacing
            break
    return max(best, -f_lam)


def symmetry_residuals(spectrum: Spectrum, lambda_grid: Sequence[float],
                       x_grid: Sequence[float]) -> tuple[float, float]:
    """Fluctuation-symmetry residuals (max |Lambda(l) - Lambda(-1-l)|,
    max |I(x) - I(-x) + x|) over the given grids, both read flat; empty
    grids give 0.  Each |x| is solved for ell0 once.  A grid whose dtype is
    not real raises :class:`DomainError`."""
    lam, xs = (_real_grid(name, grid).ravel() for name, grid in
               (("lambda grid", lambda_grid), ("x grid", x_grid)))
    ch = _channels(spectrum)
    res1 = res2 = 0.0
    if lam.size:
        v1, v2 = _cramer_values(ch, np.stack((lam, -1.0 - lam)))[0]
        # equal values (+inf on both sides outside [a, b]) differ by 0, not inf - inf
        res1 = float(np.max(np.abs(np.subtract(v1, v2, out=np.zeros_like(v1), where=v1 != v2))))
    for x in xs.tolist():
        solved = _solve(ch, abs(x))
        res2 = max(res2, abs(_rate_at(ch, x, solved) - _rate_at(ch, -x, solved) + x))
    return res1, res2
