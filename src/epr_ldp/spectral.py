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

import numpy as np

from .errors import DomainError, NumericError
from .model import Spectrum, SystemSpec, check_inputs, check_integer, spectral_decompose

__all__ = [
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

# Roots summed explicitly by the tail sums before their closed-form remainder.
_N_EXPLICIT = 20000


def _g(omega: np.ndarray, alpha: float, T: float) -> np.ndarray:
    return omega * np.cos(omega * T) - alpha * np.sin(omega * T)


def _g_prime(omega: np.ndarray, alpha: float, T: float) -> np.ndarray:
    return (
        np.cos(omega * T)
        - omega * T * np.sin(omega * T)
        - alpha * T * np.cos(omega * T)
    )


def omega_roots(alpha: float, T: float, j_max: int) -> np.ndarray:
    """Solve omega/alpha = tan(omega T) on the first j_max brackets
    ((2j-1)pi/2T, (2j+1)pi/2T), returning the roots in ascending order.

    Bisection on g(omega) = omega cos(omega T) - alpha sin(omega T) (whose
    endpoint signs alternate deterministically, so each bracket holds exactly
    one root) down to width ~1e-14, then three Newton polish steps clamped to
    the bracket.  Vectorized across all brackets.
    """
    if not alpha < 0:
        raise DomainError("alpha must be negative")
    check_inputs(T)
    j_max = check_integer("j_max", j_max)
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
    return x


@dataclasses.dataclass(frozen=True, eq=False)
class KernelSpectrum:
    """Eigenvalues of K_{lambda,T} over all rotation channels, as arrays.

    Row r of the (n_rot, j_max) blocks ``omega``, ``gamma`` and ``phase``
    holds branches j = 1..j_max of channel ``k[r]``, with eigenvalue
    gamma = 8 beta^2/(alpha^2+omega^2) and phase theta in [0, pi/2).  Rows
    follow the channel order, so a flattened block is channel-major
    ((k, j) ascending).  Channels with beta = 0 have no row (the restricted
    operator is zero).
    """

    k: np.ndarray
    omega: np.ndarray
    gamma: np.ndarray
    phase: np.ndarray

    @property
    def j_max(self) -> int:
        return self.gamma.shape[1]

    @property
    def gamma_max(self) -> float:
        """The overall largest eigenvalue; 0.0 without rotation channels."""
        return float(self.gamma.max(initial=0.0))

    @property
    def gammas(self) -> np.ndarray:
        return self.gamma.ravel()

    def records(self) -> np.recarray:
        """Every entry as a (k, j, omega, gamma, phase) record, channel-major."""
        k, j = np.broadcast_arrays(self.k[:, None], np.arange(1, self.j_max + 1))
        return np.rec.fromarrays(
            [a.ravel() for a in (k, j, self.omega, self.gamma, self.phase)],
            names="k,j,omega,gamma,phase",
        )

    def descending(self) -> np.recarray:
        """The records sorted by (-gamma, k, j)."""
        r = self.records()
        return r[np.lexsort((r.j, r.k, -r.gamma))]


def kernel_spectrum(spectrum: Spectrum, T: float, j_max: int = 200) -> KernelSpectrum:
    """Analytic kernel-operator spectrum, truncated at j_max per channel.

    Both members of a conjugate channel pair appear (their eigenvalue
    families coincide), matching the operator's multiplicities.  The roots
    are solved once per distinct alpha.
    """
    check_inputs(T)
    j_max = check_integer("j_max", j_max)
    if not j_max >= 1:
        raise DomainError("j_max must be >= 1")
    k = np.flatnonzero(spectrum.betas != 0.0)
    distinct, which = np.unique(spectrum.alphas[k], return_inverse=True)
    roots = np.reshape([omega_roots(a, T, j_max) for a in distinct], (-1, j_max))[which]
    alpha, beta = spectrum.alphas[k, None], spectrum.betas[k, None]
    return KernelSpectrum(
        k=k,
        omega=roots,
        gamma=8.0 * beta * beta / (alpha * alpha + roots * roots),
        phase=np.arctan2(roots, -alpha),
    )


def eigenfunction_norm_sq(omega, phase, T: float):
    """Closed-form squared norm int_0^T sin^2(omega u + phase) du, elementwise.

    Equals (1/2)(T - (sin 2(omega T + phase) - sin 2 phase)/(2 omega)); for
    (omega, phase) taken from a KernelSpectrum entry with drift alpha the
    value lies in [ (1/2)(1 - 1/pi) T, (1/2)((1 + 1/pi) T - 1/alpha) ].
    """
    if not np.all(omega > 0):
        raise DomainError("omega must be positive")
    check_inputs(T)
    return 0.5 * (
        T - (np.sin(2.0 * (omega * T + phase)) - np.sin(2.0 * phase)) / (2.0 * omega)
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
    check_inputs(T, lam=lam)
    if not (0 <= u1 <= T and 0 <= u2 <= T):
        raise DomainError("u1, u2 must lie in [0, T]")
    sp = spectral_decompose(spec, allow_reversible=True)
    k = np.flatnonzero(sp.betas != 0.0)
    U = sp.vectors[:, k]
    H = (U * _channel_kernel_factors(sp.alphas[k], sp.betas[k], lam, T, u1, u2)) @ U.conj().T
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


def nystrom_spectrum(
    spec: SystemSpec,
    lam: float,
    T: float,
    n_nodes: int = 400,
) -> np.ndarray:
    """Discretized kernel-operator eigenvalues, sorted descending.

    Builds the (n_nodes * d) symmetric matrix with blocks
    sqrt(w_i w_j) H(t_i, t_j) at the Gauss-Legendre nodes t_i and weights
    w_i on [0, T] and diagonalizes it.  This is the independent
    oracle for the analytic spectrum: it never touches the Sturm-Liouville
    roots.  The kernel's kink along u1 = u2 limits the quadrature order;
    tolerances of ~1e-4 at n=400 (Gauss-Legendre) account for that.

    No horizon overflows, but the kernel decays like e^{alpha |u1 - u2|},
    so accuracy needs enough nodes per unit of |alpha| T: at 400 nodes the
    pi/4 magnetic example gives 8.44 at T = 300 against the analytic 7.998.
    """
    n_nodes = check_integer("n_nodes", n_nodes)
    if not n_nodes >= 8:
        raise DomainError("n_nodes must be >= 8")
    check_inputs(T, lam=lam)
    x, w = _gauss_legendre(n_nodes)
    t, w = (x + 1.0) * (T / 2.0), w * (T / 2.0)
    sp = spectral_decompose(spec, allow_reversible=True)
    k = np.flatnonzero(sp.betas != 0.0)
    U = sp.vectors[:, k].T
    # C[r, i, j] = c_k(t_i, t_j) of rotation channel k[r] and P[r] = U_k U_k*;
    # block (i, j) of the kernel, Re sum_r C[r, i, j] P[r], is one real product
    C = _channel_kernel_factors(sp.alphas[k, None, None], sp.betas[k, None, None],
                                lam, T, t[:, None], t[None, :])
    P = U[:, :, None] * U[:, None, :].conj()
    B = np.tensordot(np.concatenate([C.real, C.imag]),
                     np.concatenate([P.real, -P.imag]), axes=(0, 0))  # (i, j, a, b)
    sw = np.sqrt(w)
    B *= sw[:, None, None, None] * sw[None, :, None, None]
    n, d = n_nodes, spec.dim
    B = B.transpose(0, 2, 1, 3).reshape(n * d, n * d)
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
    if not alpha < 0:
        raise DomainError("alpha must be negative")
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
        jb = j[bad].astype(int)
        om[bad] = omega_roots(alpha, T, int(jb.max()))[jb - 1]
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


def gamma_tail(alpha: float, beta: float, T: float, j_start: int) -> float:
    """Analytic tail sum_{j >= j_start} gamma_j for one channel.

    A long explicit stretch of asymptotically refined roots plus a
    closed-form remainder over the bracket-midpoint approximants nu_j; the
    remainder's root-displacement error is O(|alpha| T^3 / J^3), far below
    the 1e-6 trace-identity tolerance for desk-scale (T, j_start).
    """
    check_inputs(T)
    if beta == 0.0:
        return 0.0
    if not j_start >= 1:
        raise DomainError("j_start must be >= 1")
    J1 = j_start + _N_EXPLICIT - 1
    j = np.arange(j_start, J1 + 1, dtype=float)
    om = _refined_tail_roots(alpha, T, j)
    explicit = float(np.sum(8.0 * beta * beta / (alpha * alpha + om * om)))
    rem1, _ = _nu_partial_sums(alpha, T, J1)
    return explicit + 8.0 * beta * beta * rem1


def spectrum_gamma_tail(spectrum: Spectrum, T: float, j_start: int) -> float:
    """Sum of gamma_tail over every channel of the spectrum; the two members
    of a conjugate pair share their tail (only beta^2 enters), so each pair
    is solved once and counted twice."""
    check_inputs(T)
    return 2.0 * sum(gamma_tail(a, b, T, j_start) for a, b in spectrum.pairs if b > 0.0)


def log_det_tail(
    alpha: float,
    beta: float,
    T: float,
    theta: float,
    j_start: int,
) -> float:
    """Analytic tail sum_{j >= j_start} log(1 - theta gamma_j) for one channel.

    Explicit log1p over refined roots, then a second-order remainder
    log(1-x) ~ -x - x^2/2 closed over the nu_j approximants (third order is
    below double precision at these index ranges).
    """
    check_inputs(T, theta=theta)
    if beta == 0.0 or theta == 0.0:
        return 0.0
    if not j_start >= 1:
        raise DomainError("j_start must be >= 1")
    J1 = j_start + _N_EXPLICIT - 1
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
