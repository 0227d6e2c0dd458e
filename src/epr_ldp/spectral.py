"""Exact spectrum of the quadratic-functional kernel operator, plus a
Nystrom discretization oracle.

For each rotation channel (alpha, beta) the integral operator K_{lambda,T}
restricts to a Sturm-Liouville problem whose eigenvalues are

    gamma_j = 8 beta^2 / (alpha^2 + omega_j^2),

where omega_j solves the transcendental equation omega/alpha = tan(omega T)
with exactly one root in each bracket ((2j-1)pi/2T, (2j+1)pi/2T).  Every
root, in the first brackets and in the tail sums alike, comes from one
Newton iteration in the scaled variable x = omega T (``_scaled_roots``),
never from the tan form.  The spectrum is lambda-independent; lambda enters
only through unitary phase factors of the kernel, which the Nystrom oracle
confirms numerically.

Tail sums over j >= j_start sum the same roots up to J1 = j_start - 1 + N
and close the rest on shifted midpoints.  With c = |alpha| T and
b_j = (2j-1) pi/2, the root x_j = omega_j T solves x = b_j + arctan(c/x), so

    x_j^2 = b_j^2 + 2c - (c^2 + 2c^3/3)/b_j^2 + O(c^4/b_j^4).

Past J1 each c^2 + x_j^2 becomes x^2 + b_j^2 with x^2 = c^2 + 2c (alpha^2
becomes xi^2 = alpha^2 + 2|alpha|/T).  ``gamma_tail`` sums 1/(x^2 + b_j^2)
from tanh(x)/(2x) (``_nu_partial_sums``; never the closed-form trace the
tail is checked against).  ``log_det_tail`` sums f(b) = log(1 - u/(x^2 + b^2)),
u = 8 theta beta^2 T^2, by the midpoint rule's Euler-Maclaurin form, L = J1 pi,

    sum_{j>J1} f(b_j) = (1/pi) int_L^inf f db + (pi/24) f'(L)   (next: ~3/L^4 of it),
    int_L^inf f db = -L f(L) - 2 [x atan(x/L) - A atan(A/L)],  A^2 = x^2 - u

(by parts, then partial fractions in b^2; A atan(A/L) = -a atanh(a/L) for
A = ia): no expansion of the log, so any theta.  The shift leaves
(c^2 + 2c^3/3)/b_j^2 in each denominator, at most (c^2 + 2c^3/3)/(5 L^4) of
the remainder once summed, and the remainder is a tenth or less of a tail
from j_start <= c.  N = max(2000, ceil(5c)), i.e. L >= 5 pi c, thus keeps
both tails within ~5e-10 up to the cap N = _N_EXPLICIT, which c = 1e4
reaches at ~2e-9.  Past c ~ L the expansion fails: the error peaks at a
few 1e-6 for c ~ 1e5 to 1e6 and falls as ~0.3/c.  ``TestTailAccuracy`` and
``TestLongHorizonTails`` check this against brute force and closed forms.
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

# Cap of the explicit roots in a tail sum (the count rule is in the docstring).
_N_EXPLICIT = 20000
# Shortest horizon of the root solvers: omega_j = x_j / T with
# x_j < (2j+1) pi/2 stays finite for any j_max below ~5e17.
_MIN_T = 1e-290


def _scaled_roots(alpha, T: float, j: np.ndarray) -> np.ndarray:
    """x_j = omega_j T for a drift alpha < 0 (a float or a column of them;
    :class:`DomainError` otherwise) and root indices j >= 1, by Newton's
    method on

        f(x) = x - b_j - arctan(c / x),   b_j = (2j-1) pi/2,   c = |alpha| T.

    f' = 1 + c/(x^2 + c^2) >= 1 and f'' = -2cx/(x^2 + c^2)^2 < 0, so f is
    increasing and concave: from x_0 = b_j, where f < 0, Newton climbs
    monotonically to the root x_*, with no bracket and no fallback.  Its
    error e_n obeys e_{n+1} <= K e_n^2, K = max |f''|/2 <= 0.325/x^2 <= 0.132,
    and e_0 = arctan(c/x_*) < pi/2, so e_n <= e_0 (K e_0)^(2^n - 1):
    e_5 < 1e-21, below half an ulp of any x >= pi/2.  Five steps thus reach
    every root, and that is the cap.  Most stop sooner: as K e_0 <= 0.207,
    e_n <= 0.26 t_n for the step t_n just taken, so once every |t_n| <= 1e-8 x
    the error left is at most 1.6 K t_n^2 <= 5.2e-17, below half an ulp,
    and the loop ends.  c is clipped to [1e-150, 1e150], which moves no
    root and keeps c^2 finite.  The step is formed in two scratch arrays,
    as 20 000 tail roots make fresh temporaries costly.
    """
    if not np.all(np.less(alpha, 0.0)):
        raise DomainError("alpha must be negative")
    base = (2.0 * j - 1.0) * (math.pi / 2.0)
    with np.errstate(over="ignore"):
        c = np.clip(np.multiply(alpha, -T), 1e-150, 1e150)
    c2 = c * c
    shape = np.broadcast_shapes(np.shape(c), base.shape)
    x, f, fp = np.broadcast_to(base, shape).copy(), np.empty(shape), np.empty(shape)
    for _ in range(5):
        np.subtract(x, base, out=f)
        f -= np.arctan(np.divide(c, x, out=fp), out=fp)  # f(x)
        np.multiply(x, x, out=fp)
        fp += c2
        np.divide(c, fp, out=fp)
        fp += 1.0  # f'(x)
        f /= fp  # the step t_n
        x -= f
        if np.divide(np.abs(f, out=f), x, out=f).max(initial=0.0) <= 1e-8:
            break
    return x


def _root_indices(T: float, j_max: int) -> np.ndarray:
    """1.0, ..., j_max after the root solvers' checks: T a horizon of at
    least ``_MIN_T`` and j_max an integer >= 1."""
    check_inputs(T)
    if not T >= _MIN_T:
        raise DomainError(f"T = {T!r} is below the shortest horizon {_MIN_T:g} of the root solver")
    j_max = check_integer("j_max", j_max)
    if not j_max >= 1:
        raise DomainError("j_max must be >= 1")
    return np.arange(1.0, j_max + 1.0)


def omega_roots(alpha: float, T: float, j_max: int) -> np.ndarray:
    """Solve omega/alpha = tan(omega T) on the first j_max brackets
    ((2j-1)pi/2T, (2j+1)pi/2T), returning the roots in ascending order.

    One vectorized Newton iteration in the scaled variable omega T
    (``_scaled_roots``), at most five steps for any alpha < 0 and any
    horizon T >= 1e-290; a shorter horizon raises :class:`DomainError`.
    """
    return _scaled_roots(alpha, T, _root_indices(T, j_max)) / T


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
    of every distinct alpha are solved in one Newton iteration.  gamma is
    formed as 8 (beta / hypot(alpha, omega))^2, which neither overflows at
    short horizons (omega ~ 1/T) nor at long ones, so no horizon down to
    the solver's minimum 1e-290 (shorter raises :class:`DomainError`) warns.
    """
    j = _root_indices(T, j_max)
    k = np.flatnonzero(spectrum.betas != 0.0)
    distinct, which = np.unique(spectrum.alphas[k], return_inverse=True)
    roots = (_scaled_roots(distinct[:, None], T, j) / T)[which]
    alpha, beta = spectrum.alphas[k, None], spectrum.betas[k, None]
    return KernelSpectrum(
        k=k,
        omega=roots,
        gamma=8.0 * (beta / np.hypot(alpha, roots)) ** 2,
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
    """The paper's kernel H_{lambda,T}(u1, u2), a d x d matrix, via the channel sum.

    H(u1, u2) = sum_k (-4 beta_k^2/alpha_k)
                e^{-(alpha_k - i(1+2 lambda) beta_k) u1}
                e^{-(alpha_k + i(1+2 lambda) beta_k) u2}
                (e^{2 alpha_k (u1 v u2)} - e^{2 alpha_k T}) P_{U_k},

    which is real (conjugate channels pair up) and satisfies
    H(u1, u2) = H(u2, u1)'.  ``nystrom_spectrum`` works channel by channel
    and never assembles this matrix; it stays as the independent route to
    the full Nystrom matrix.
    """
    check_inputs(T, lam=lam)
    if not (0 <= u1 <= T and 0 <= u2 <= T):
        raise DomainError("u1, u2 must lie in [0, T]")
    sp = spectral_decompose(spec)
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
    """The n_nodes * d eigenvalues, sorted descending, of the Nystrom matrix
    with blocks sqrt(w_i w_j) H(t_i, t_j) at the Gauss-Legendre nodes t_i
    and weights w_i on [0, T].

    As H = Re sum_k c_k U_k U_k* with orthonormal U_k, they are those of the
    n_nodes x n_nodes Hermitian blocks sqrt(w_i w_j) c_k(t_i, t_j), one
    eigensolve per beta > 0 channel counted twice (for its conjugate), plus
    n_nodes zeros per beta = 0 channel.  The blocks keep the phases
    e^{i(1+2 lambda) beta (u1-u2)}, so lambda-independence is tested, not
    assumed.  This is the independent oracle for the analytic spectrum: it
    never touches the Sturm-Liouville roots.  The kernel's kink along
    u1 = u2 limits the quadrature order; tolerances of ~1e-4 at n=400
    account for that.

    No horizon overflows, but the kernel decays like e^{alpha |u1 - u2|},
    so accuracy needs enough nodes per unit of |alpha| T: at 400 nodes the
    pi/4 magnetic example gives 8.44 at T = 300 against the analytic 7.998.
    """
    n_nodes = check_integer("n_nodes", n_nodes)
    if not n_nodes >= 8:
        raise DomainError("n_nodes must be >= 8")
    check_inputs(T, lam=lam)
    x, w = _gauss_legendre(n_nodes)
    t, sw = (x + 1.0) * (T / 2.0), np.sqrt(w * (T / 2.0))
    sp = spectral_decompose(spec)
    vals = [np.zeros(n_nodes * np.count_nonzero(sp.betas == 0.0))]
    for alpha, beta in sp.pairs:
        if beta > 0.0:
            C = _channel_kernel_factors(alpha, beta, lam, T, t[:, None], t[None, :])
            C *= sw[:, None] * sw[None, :]
            try:
                vals += [np.linalg.eigvalsh(C)] * 2
            except np.linalg.LinAlgError as exc:
                raise NumericError(f"Nystrom eigensolve failed at T={T!r}") from exc
    return np.sort(np.concatenate(vals))[::-1]


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
    total2 = T * (math.tanh(x) - 4.0 * x * e2 / (1.0 + e2) ** 2) / (4.0 * r * r * r)
    jj = np.arange(1, J1 + 1)
    nu2 = ((2.0 * jj - 1.0) * (math.pi / (2.0 * T))) ** 2
    inv = 1.0 / (a2 + nu2)
    return total1 - float(np.sum(inv)), total2 - float(np.sum(inv * inv))


def _tail_stretch(alpha: float, beta: float, T: float, j_start: int):
    """The explicit stretch gamma_j, j_start <= j <= J1, of a tail, with
    (xi, J1) for its remainder: xi^2 = alpha^2 + 2|alpha|/T, x = xi T, with
    c = |alpha| T raised to 1e-150 as in ``_scaled_roots``."""
    if not j_start >= 1:
        raise DomainError("j_start must be >= 1")
    a = max(-alpha, 1e-150 / T)
    J1 = j_start - 1 + max(2000, math.ceil(min(5.0 * a * T, _N_EXPLICIT)))
    x = _scaled_roots(alpha, T, np.arange(j_start, J1 + 1.0))
    return 8.0 * (beta / np.hypot(alpha, x / T)) ** 2, math.sqrt(a) * math.sqrt(a + 2.0 / T), J1


def gamma_tail(alpha: float, beta: float, T: float, j_start: int) -> float:
    """Analytic tail sum_{j >= j_start} gamma_j for one channel: Newton roots
    up to J1, then 8 beta^2 T^2 sum_{j>J1} 1/(x^2 + b_j^2) on the shifted
    midpoints, with the count and error bound of the module docstring.  The
    remainder is ``_nu_partial_sums`` in units s = max(T, 1) of time, where
    neither xi T/s nor b_j/s squares past the float range."""
    check_inputs(T, alpha=alpha, beta=beta)
    if beta == 0.0:
        return 0.0
    gam, xi, J1 = _tail_stretch(alpha, beta, T, j_start)
    s = max(T, 1.0)
    b = beta * T / s
    return float(np.sum(gam)) + 8.0 * b * b * _nu_partial_sums(xi * (T / s), s, J1)[0]


def spectrum_gamma_tail(spectrum: Spectrum, T: float, j_start: int) -> float:
    """Sum of gamma_tail over every channel of the spectrum; the two members
    of a conjugate pair share their tail (only beta^2 enters), so each pair
    is solved once and counted twice."""
    check_inputs(T)
    return 2.0 * sum(gamma_tail(a, b, T, j_start) for a, b in spectrum.pairs if b > 0.0)


def log_det_tail(alpha: float, beta: float, T: float, theta: float, j_start: int) -> float:
    """Analytic tail sum_{j >= j_start} log(1 - theta gamma_j) for one channel:
    log1p over Newton roots up to J1, then the Euler-Maclaurin closure of the
    module docstring in units h = hypot(x, L) of b, where nothing overflows:
    p = x/h, ell = L/h, v = u/h^2, and p^2 + ell^2 = 1.  The bracket
    E = p atan(p/ell) - A atan(A/ell) is formed without cancellation: as
    v atan(p/ell)/(p + A) + A atan(z), z = tan(atan(p/ell) - atan(A/ell)), for
    A^2 = p^2 - v >= 0, else as p atan(p/ell) + a atanh(a/ell), a^2 = -A^2."""
    check_inputs(T, alpha=alpha, beta=beta, theta=theta)
    if beta == 0.0 or theta == 0.0:
        return 0.0
    gam, xi, J1 = _tail_stretch(alpha, beta, T, j_start)
    arg = theta * gam
    if np.any(arg >= 1.0):
        return -math.inf
    H = math.hypot(xi, J1 * math.pi / T)  # h/T
    p, ell, b = xi / H, J1 * math.pi / T / H, beta / H
    v = theta * 8.0 * b * b
    A = math.sqrt(abs(p * p - v))
    E = (v * math.atan2(p, ell) / (p + A) + A * math.atan(v * ell / ((p + A) * (ell * ell + p * A)))
         if p * p >= v else p * math.atan2(p, ell) + A * math.atanh(A / ell))
    rem = H * (-ell * math.log1p(-v) - 2.0 * E) / math.pi * T + math.pi / 12.0 * ell * v / (1.0 - v) / H / T
    return float(np.sum(np.log1p(-arg))) + rem
