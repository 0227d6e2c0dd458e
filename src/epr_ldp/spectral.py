"""Exact spectrum of the quadratic-functional kernel operator, plus a
Nystrom discretization oracle.

For each rotation channel (alpha, beta) the integral operator K_{lambda,T}
restricts to a Sturm-Liouville problem whose eigenvalues are

    gamma_j = 8 beta^2 / (alpha^2 + omega_j^2),

where omega_j solves the transcendental equation omega/alpha = tan(omega T)
with exactly one root in each bracket ((2j-1)pi/2T, (2j+1)pi/2T).  The roots
are found by bracketed bisection plus Newton polish on the pole-free form

    g(omega) = omega cos(omega T) - alpha sin(omega T),

never on the tan form.  The spectrum is lambda-independent; lambda enters
only through unitary phase factors of the kernel, which the Nystrom oracle
confirms numerically.

Tail sums over j > j_max use the asymptotic fixed point
omega_j T = (2j-1)pi/2 + arctan(|alpha|/omega_j) for a long explicit
stretch and close the remainder with

    sum_j 1/(alpha^2 + nu_j^2) = T tanh(|alpha| T) / (2 |alpha|),
    nu_j = (2j-1) pi / (2T),

(and its derivative in alpha^2 for the quadratic correction), keeping the
tail independent of the closed-form trace it is checked against.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError, NumericError
from .model import Spectrum, SystemSpec, check_inputs, spectral_decompose

__all__ = [
    "OmegaRoots",
    "SpectrumEntry",
    "KernelSpectrum",
    "omega_roots",
    "kernel_spectrum",
    "eigenfunction_norm_sq",
    "kernel_eval",
    "nystrom_spectrum",
    "trace_closed_form",
    "gamma_tail",
    "spectrum_gamma_tail",
    "log_det_tail",
]


def _g(omega: np.ndarray, alpha: float, T: float) -> np.ndarray:
    return omega * np.cos(omega * T) - alpha * np.sin(omega * T)


def _g_prime(omega: np.ndarray, alpha: float, T: float) -> np.ndarray:
    return (
        np.cos(omega * T)
        - omega * T * np.sin(omega * T)
        - alpha * T * np.cos(omega * T)
    )


@dataclasses.dataclass(frozen=True, eq=False)
class OmegaRoots:
    """Roots of omega/alpha = tan(omega T), one per bracket, ascending."""

    alpha: float
    T: float
    roots: np.ndarray
    channel: Optional[int] = None

    @property
    def j_max(self) -> int:
        return len(self.roots)

    def bracket(self, j: int) -> tuple[float, float]:
        """Open bracket ((2j-1)pi/2T, (2j+1)pi/2T) for the 1-based index j."""
        if not 1 <= j <= self.j_max:
            raise DomainError(f"root index {j} outside 1..{self.j_max}")
        return ((2 * j - 1) * math.pi / (2 * self.T), (2 * j + 1) * math.pi / (2 * self.T))

    def residual_tan(self, j: int) -> float:
        """|omega/alpha - tan(omega T)| at root j (ill-conditioned for large j)."""
        om = self.roots[j - 1]
        return abs(om / self.alpha - math.tan(om * self.T))

    def residual_g(self, j: int) -> float:
        """|omega cos(omega T) - alpha sin(omega T)| at root j (backward-stable form)."""
        om = self.roots[j - 1]
        return abs(float(_g(np.array(om), self.alpha, self.T)))


def omega_roots(alpha: float, T: float, j_max: int) -> OmegaRoots:
    """Solve omega/alpha = tan(omega T) on the first j_max brackets.

    Bisection on g(omega) = omega cos(omega T) - alpha sin(omega T) (whose
    endpoint signs alternate deterministically, so each bracket holds exactly
    one root) down to width ~1e-14, then three Newton polish steps clamped to
    the bracket.  Vectorized across all brackets.
    """
    if not alpha < 0:
        raise DomainError("alpha must be negative")
    check_inputs(T)
    if not j_max >= 1:
        raise DomainError("j_max must be >= 1")

    j = np.arange(1, j_max + 1)
    lo = (2 * j - 1) * (math.pi / (2 * T))
    hi = (2 * j + 1) * (math.pi / (2 * T))
    width = math.pi / T
    eps = 1e-12 * width
    a = lo + eps
    b = hi - eps
    ga = _g(a, alpha, T)
    gb = _g(b, alpha, T)
    if np.any(ga == 0.0) or np.any(gb == 0.0) or np.any(np.sign(ga) == np.sign(gb)):
        raise NumericError(
            "endpoint residual sign ambiguity in omega bracket; "
            "root coincides with a bracket edge"
        )
    # Bisection: ~60 halvings takes pi/T below 1e-14 absolute for any sane T,
    # and below a few ulps otherwise.
    n_iter = max(48, int(math.ceil(math.log2(width / 1e-14))) + 2)
    n_iter = min(n_iter, 200)
    for _ in range(n_iter):
        mid = 0.5 * (a + b)
        gm = _g(mid, alpha, T)
        take_left = np.sign(gm) == np.sign(ga)
        a = np.where(take_left, mid, a)
        ga = np.where(take_left, gm, ga)
        b = np.where(take_left, b, mid)
    x = 0.5 * (a + b)
    for _ in range(3):
        gx = _g(x, alpha, T)
        gpx = _g_prime(x, alpha, T)
        step = np.where(gpx != 0.0, gx / np.where(gpx != 0.0, gpx, 1.0), 0.0)
        x = np.clip(x - step, lo + eps, hi - eps)
    return OmegaRoots(alpha=float(alpha), T=float(T), roots=x, channel=None)


@dataclasses.dataclass(frozen=True)
class SpectrumEntry:
    """One kernel eigenvalue: channel k, branch index j, root omega,
    eigenvalue gamma = 8 beta^2/(alpha^2+omega^2), phase theta in [0, pi/2)."""

    k: int
    j: int
    omega: float
    gamma: float
    phase: float


@dataclasses.dataclass(frozen=True, eq=False)
class KernelSpectrum:
    """Eigenvalues of K_{lambda,T} over all rotation channels.

    Entries are stored channel-major ((k, j) ascending); ``descending()``
    returns them sorted by gamma.  Channels with beta = 0 contribute nothing
    (the restricted operator is zero).  gamma_max is the overall largest
    eigenvalue (always attained at some j = 1 entry; 0.0 if no entries).
    """

    entries: tuple[SpectrumEntry, ...]
    gamma_max: float
    T: float
    j_max: int

    def descending(self) -> tuple[SpectrumEntry, ...]:
        return tuple(
            sorted(self.entries, key=lambda e: (-e.gamma, e.k, e.j))
        )

    def channel_entries(self, k: int) -> tuple[SpectrumEntry, ...]:
        return tuple(e for e in self.entries if e.k == k)

    @property
    def gammas(self) -> np.ndarray:
        return np.array([e.gamma for e in self.entries])


def kernel_spectrum(spectrum: Spectrum, T: float, j_max: int = 200) -> KernelSpectrum:
    """Analytic kernel-operator spectrum, truncated at j_max per channel.

    Both members of a conjugate channel pair appear (their eigenvalue
    families coincide), matching the operator's multiplicities.
    """
    check_inputs(T)
    if not j_max >= 1:
        raise DomainError("j_max must be >= 1")
    entries: list[SpectrumEntry] = []
    root_cache: dict[float, np.ndarray] = {}
    for k, (alpha, beta) in enumerate(spectrum.pairs):
        if beta == 0.0:
            continue
        roots = root_cache.get(alpha)
        if roots is None:
            roots = omega_roots(alpha, T, j_max).roots
            root_cache[alpha] = roots
        gammas = 8.0 * beta * beta / (alpha * alpha + roots * roots)
        phases = np.arctan2(roots, -alpha)
        entries.extend(
            SpectrumEntry(k=k, j=jj + 1, omega=float(roots[jj]),
                          gamma=float(gammas[jj]), phase=float(phases[jj]))
            for jj in range(j_max)
        )
    gamma_max = max((e.gamma for e in entries if e.j == 1), default=0.0)
    return KernelSpectrum(entries=tuple(entries), gamma_max=gamma_max,
                          T=float(T), j_max=int(j_max))


def eigenfunction_norm_sq(omega: float, phase: float, T: float) -> float:
    """Closed-form squared norm int_0^T sin^2(omega u + phase) du.

    Equals (1/2)(T - (sin 2(omega T + phase) - sin 2 phase)/(2 omega)); for
    (omega, phase) taken from a KernelSpectrum entry with drift alpha the
    value lies in [ (1/2)(1 - 1/pi) T, (1/2)((1 + 1/pi) T - 1/alpha) ].
    """
    if not omega > 0:
        raise DomainError("omega must be positive")
    check_inputs(T)
    return 0.5 * (
        T - (math.sin(2.0 * (omega * T + phase)) - math.sin(2.0 * phase)) / (2.0 * omega)
    )


def _channel_kernel_factors(alpha, beta, lam, T, u1, u2):
    """Scalar kernel factor c_k(u1, u2) of the channel projection, written as
    (-4 beta^2/alpha) e^{i f (u1-u2)} (e^{alpha|u1-u2|} - e^{alpha(T-u1)} e^{alpha(T-u2)}),
    f = (1 + 2 lambda) beta: every exponent is <= 0, so no horizon overflows."""
    freq = (1.0 + 2.0 * lam) * beta
    left = (-4.0 * beta * beta / alpha) * np.exp(1j * freq * u1)
    tail = np.exp(alpha * (T - u1)) * np.exp(alpha * (T - u2))
    return left * np.exp(-1j * freq * u2) * (np.exp(alpha * np.abs(u1 - u2)) - tail)


def kernel_eval(
    spec: SystemSpec, lam: float, T: float, u1: float, u2: float
) -> np.ndarray:
    """Evaluate the d x d kernel H_{lambda,T}(u1, u2) via the channel sum.

    H(u1, u2) = sum_k (-4 beta_k^2/alpha_k)
                e^{-(alpha_k - i(1+2 lambda) beta_k) u1}
                e^{-(alpha_k + i(1+2 lambda) beta_k) u2}
                (e^{2 alpha_k (u1 v u2)} - e^{2 alpha_k T}) P_{U_k},

    which is real (conjugate channels pair up) and satisfies
    H(u1, u2) = H(u2, u1)'.
    """
    check_inputs(T)
    if not (0 <= u1 <= T and 0 <= u2 <= T):
        raise DomainError("u1, u2 must lie in [0, T]")
    sp = spectral_decompose(spec, allow_reversible=True)
    H = np.zeros((spec.dim, spec.dim), dtype=complex)
    for (alpha, beta), U in zip(sp.pairs, sp.channel_vectors):
        if beta == 0.0:
            continue
        c = _channel_kernel_factors(alpha, beta, lam, T, u1, u2)
        H += c * np.outer(U, np.conj(U))
    if np.max(np.abs(H.imag)) > 1e-10 * (1.0 + np.max(np.abs(H.real))):
        raise NumericError("kernel evaluation produced a non-real matrix")
    return H.real


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] (an n x n eigensolve),
    built once per node count and returned read-only."""
    rule = np.polynomial.legendre.leggauss(n_nodes)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _quadrature(rule: str, n_nodes: int, T: float) -> tuple[np.ndarray, np.ndarray]:
    if rule == "gauss":
        x, w = _gauss_legendre(n_nodes)
        return (x + 1.0) * (T / 2.0), w * (T / 2.0)
    if rule == "trapezoid":
        t = np.linspace(0.0, T, n_nodes)
        h = T / (n_nodes - 1)
        w = np.full(n_nodes, h)
        w[0] = w[-1] = h / 2.0
        return t, w
    raise ConfigError(f"unknown quadrature rule {rule!r}; use 'gauss' or 'trapezoid'")


def nystrom_spectrum(
    spec: SystemSpec,
    lam: float,
    T: float,
    n_nodes: int = 400,
    rule: str = "gauss",
) -> np.ndarray:
    """Discretized kernel-operator eigenvalues, sorted descending.

    Builds the (n_nodes * d) symmetric matrix with blocks
    sqrt(w_i w_j) H(t_i, t_j) and diagonalizes it.  This is the independent
    oracle for the analytic spectrum: it never touches the Sturm-Liouville
    roots.  The kernel's kink along u1 = u2 limits the quadrature order;
    tolerances of ~1e-4 at n=400 (Gauss-Legendre) account for that.

    No horizon overflows, but the kernel decays like e^{alpha |u1 - u2|},
    so accuracy needs enough nodes per unit of |alpha| T: at 400 nodes the
    pi/4 magnetic example gives 8.44 at T = 300 against the analytic 7.998.
    """
    if not n_nodes >= 8:
        raise DomainError("n_nodes must be >= 8")
    check_inputs(T)
    t, w = _quadrature(rule, n_nodes, T)
    sp = spectral_decompose(spec, allow_reversible=True)
    d = spec.dim
    n = n_nodes
    G = np.zeros((n, d, n, d))
    U1 = t[:, None]
    U2 = t[None, :]
    for (alpha, beta), U in zip(sp.pairs, sp.channel_vectors):
        if beta == 0.0:
            continue
        C = _channel_kernel_factors(alpha, beta, lam, T, U1, U2)
        P = np.outer(U, np.conj(U))
        G += np.real(C[:, None, :, None] * P[None, :, None, :])
    sw = np.sqrt(w)
    G *= sw[:, None, None, None]
    G *= sw[None, None, :, None]
    B = G.reshape(n * d, n * d)
    B = (B + B.T) / 2.0
    try:
        vals = np.linalg.eigvalsh(B)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Nystrom eigensolve failed at T={T!r}") from exc
    return vals[::-1]


def trace_closed_form(spec: SystemSpec, T: float) -> float:
    """Exact trace of the kernel operator,

        2 [ tr(N' M^{-1} (e^{MT} - I) M^{-1} N) - T tr(N' M^{-1} N) ],

    computed by direct matrix arithmetic, with e^{MT} - I = V diag(expm1(w T)) V'
    from M = V diag(w) V' (no channel or Sturm-Liouville input), so it can
    serve as one side of the trace-identity cross-check.
    """
    check_inputs(T)
    A = spec.A
    M, N = A + A.T, A - A.T  # Q-free: Gamma need not exist
    W = np.linalg.solve(M, N)
    w, V = np.linalg.eigh(M)
    term1 = float(np.sum(np.expm1(w * T) * np.sum((V.T @ W) ** 2, axis=1)))
    term2 = float(np.trace(W.T @ N))
    return 2.0 * (term1 - T * term2)


def _refined_tail_roots(alpha: float, T: float, j: np.ndarray) -> np.ndarray:
    """Roots for (large) indices j via the contraction
    omega = ((2j-1)pi/2 + arctan(|alpha|/omega)) / T, with bisection fallback
    for any index where the iteration has not converged."""
    base = (2.0 * j - 1.0) * (math.pi / 2.0)
    om = base / T
    prev = np.zeros_like(om)
    for _ in range(60):
        prev = om
        om = (base + np.arctan(-alpha / om)) / T
        if np.max(np.abs(om - prev)) <= 1e-15 * np.max(om):
            break
    bad = np.abs(om - prev) > 1e-12 * np.maximum(1.0, om)
    if np.any(bad):
        max_bad = int(j[bad].max())
        bisected = omega_roots(alpha, T, max_bad).roots
        for idx in np.nonzero(bad)[0]:
            om[idx] = bisected[int(j[idx]) - 1]
    return om


def _nu_partial_sums(alpha: float, T: float, J1: int) -> tuple[float, float]:
    """(sum_{j>J1} 1/(a2+nu_j^2), sum_{j>J1} 1/(a2+nu_j^2)^2) in closed form,
    nu_j = (2j-1)pi/2T."""
    a2 = alpha * alpha
    r = abs(alpha)
    x = r * T
    total1 = T * math.tanh(x) / (2.0 * r)
    # derivative of  s -> T tanh(sqrt(s) T)/(2 sqrt(s))  at s = a2, negated;
    # x sech^2 x is written as 4x e^{-2x}/(1 + e^{-2x})^2, finite for any x
    e2 = math.exp(-2.0 * x)
    total2 = T * (math.tanh(x) - 4.0 * x * e2 / (1.0 + e2) ** 2) / (4.0 * r**3)
    jj = np.arange(1, J1 + 1)
    nu2 = ((2.0 * jj - 1.0) * (math.pi / (2.0 * T))) ** 2
    part1 = float(np.sum(1.0 / (a2 + nu2)))
    part2 = float(np.sum(1.0 / (a2 + nu2) ** 2))
    return total1 - part1, total2 - part2


def gamma_tail(
    alpha: float, beta: float, T: float, j_start: int, n_explicit: int = 20000
) -> float:
    """Analytic tail sum_{j >= j_start} gamma_j for one channel.

    A long explicit stretch of asymptotically refined roots plus a
    closed-form remainder over the bracket-midpoint approximants nu_j; the
    remainder's root-displacement error is O(|alpha| T^3 / J^3), far below
    the 1e-6 trace-identity tolerance for desk-scale (T, j_start).
    """
    if beta == 0.0:
        return 0.0
    if not j_start >= 1:
        raise DomainError("j_start must be >= 1")
    J1 = j_start + n_explicit - 1
    j = np.arange(j_start, J1 + 1, dtype=float)
    om = _refined_tail_roots(alpha, T, j)
    explicit = float(np.sum(8.0 * beta * beta / (alpha * alpha + om * om)))
    rem1, _ = _nu_partial_sums(alpha, T, J1)
    return explicit + 8.0 * beta * beta * rem1


def spectrum_gamma_tail(spectrum: Spectrum, T: float, j_start: int) -> float:
    """Sum of gamma_tail over every channel of the spectrum."""
    return float(
        sum(gamma_tail(a, b, T, j_start) for a, b in spectrum.pairs if b != 0.0)
    )


def log_det_tail(
    alpha: float,
    beta: float,
    T: float,
    theta: float,
    j_start: int,
    n_explicit: int = 20000,
) -> float:
    """Analytic tail sum_{j >= j_start} log(1 - theta gamma_j) for one channel.

    Explicit log1p over refined roots, then a second-order remainder
    log(1-x) ~ -x - x^2/2 closed over the nu_j approximants (third order is
    below double precision at these index ranges).
    """
    if beta == 0.0 or theta == 0.0:
        return 0.0
    if not j_start >= 1:
        raise DomainError("j_start must be >= 1")
    J1 = j_start + n_explicit - 1
    j = np.arange(j_start, J1 + 1, dtype=float)
    om = _refined_tail_roots(alpha, T, j)
    gam = 8.0 * beta * beta / (alpha * alpha + om * om)
    arg = theta * gam
    if np.any(arg >= 1.0):
        return -math.inf
    explicit = float(np.sum(np.log1p(-arg)))
    rem1, rem2 = _nu_partial_sums(alpha, T, J1)
    c = 8.0 * beta * beta
    remainder = -theta * c * rem1 - 0.5 * theta * theta * c * c * rem2
    return explicit + remainder
