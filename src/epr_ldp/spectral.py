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
only through unitary phase factors of the kernel, so the Nystrom oracle
eigensolves the real kernel and ``verify`` measures the phased one.

Tail sums over j >= j_start solve roots only up to J1 = max(j_start - 1, 200)
and close the rest by the midpoint Euler-Maclaurin sum over the exact root
map.  With c = |alpha| T, b_j = (2j-1) pi/2 and L = J1 pi, x_j = omega_j T is
X(b_j), where X = b + atan(c/X), so X' = (X^2 + c^2)/(X^2 + c^2 + c).  For a
term g(b_j) = F(X(b_j)), F = K/(c^2 + X^2) (gamma_j, K = 8 beta^2 T^2) or
log(1 - u/(c^2 + X^2)) (log(1 - theta gamma_j), u = theta K),

    sum_{j>J1} g(b_j) = (1/pi) int_L^inf g db + (pi/24) g'(L) - (7 pi^3/5760) g'''(L) + R,

and db = (1 + c/(X^2 + c^2)) dX splits the integral into int_{X(L)}^inf F dX
and, with X = c cot psi and phi = atan(c/X(L)), int_0^phi F(c cot psi) d psi.
For gamma both are elementary: (K/c) phi + (K/c^2)(phi - sin phi cos phi)/2.
For the log the first is -X F - 2 [c atan(c/X) - A atan(A/X)] at X(L),
A^2 = c^2 - u (by parts and partial fractions); the second,
int_0^phi log(1 - (u/c^2) sin^2 psi) d psi, takes a 32-node Gauss-Legendre
rule.  Where u < -4 S^2 (S below) or theta gamma at the cut passes 1/2, the
two zeros of 1 - (u/c^2) sin^2 psi nearest [0, phi] come near it; the log
of their quadratic is integrated in closed form and the rule gets the
smooth quotient.  The remainder R is led by (31 pi^5/967680) g^(5)(L); F is
analytic off X = +-i c and +-sqrt(u - c^2), so g^(k)/g ~ hypot(c, X)^-k and
|R| < 22/L^6 < 4e-16 of the tail at L >= 200 pi.  Past theta = 1/g_inf,
g_inf = 8 beta^2/alpha^2, the log has a real singular point
X* = T sqrt(8 theta beta^2 - alpha^2).  From theta g_inf >= 1 - 1e-14 on,
where theta gamma_{j_start} may round to 1, the root j_start is solved and
J1 raised until L clears X* by 64 pi (|R| < 1e-12): the tail is -inf
exactly when theta gamma_{j_start} >= 1 as ``kernel_spectrum`` forms it.
All of it is formed in the unit S = hypot(c, X(L)) = T hypot(alpha, X(L)/T):
nothing overflows for T from 1e-290 to 1e308 and |alpha| up to 1e150.
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

# Shortest horizon and largest root index: b_j = (2j-1) pi/2 is exact in
# doubles and omega_j = x_j/T < (2j+1) pi/2T stays finite.
_MIN_T = 1e-290
_MAX_J = 2**52
# Tails solve roots up to _J_EXPLICIT, clear a real singular point of
# log(1 - theta gamma) by _CLEARANCE in omega T and close on _N_GAUSS nodes.
_J_EXPLICIT = 200
_CLEARANCE = 64.0 * math.pi
_N_GAUSS = 32


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
    root and keeps c^2 finite.
    """
    if not np.all(np.less(alpha, 0.0)):
        raise DomainError("alpha must be negative")
    base = (2.0 * j - 1.0) * (math.pi / 2.0)
    with np.errstate(over="ignore"):
        c = np.clip(np.multiply(alpha, -T), 1e-150, 1e150)
    x = base + 0.0 * c  # in the shape of base and c together
    for _ in range(5):
        t = (x - base - np.arctan(c / x)) / (1.0 + c / (x * x + c * c))  # the step t_n
        x = x - t
        if np.max(np.abs(t) / x, initial=0.0) <= 1e-8:
            break
    return x


def _check_index(T: float, name: str, j, **values) -> int:
    """The root solvers' and tails' checks: T a horizon of at least
    ``_MIN_T`` and the root index j an integer in [1, _MAX_J] (returned)."""
    check_inputs(T, **values)
    if not T >= _MIN_T:
        raise DomainError(f"T = {T!r} is below the shortest horizon {_MIN_T:g} of the root solver")
    j = check_integer(name, j)
    if not 1 <= j <= _MAX_J:
        raise DomainError(f"{name} must be between 1 and {_MAX_J}, got {j!r}")
    return j


def omega_roots(alpha: float, T: float, j_max: int) -> np.ndarray:
    """Solve omega/alpha = tan(omega T) on the first j_max brackets
    ((2j-1)pi/2T, (2j+1)pi/2T), returning the roots in ascending order.

    One vectorized Newton iteration in the scaled variable omega T
    (``_scaled_roots``), at most five steps for any alpha < 0 and any
    horizon T >= 1e-290; a shorter horizon raises :class:`DomainError`.
    """
    return _scaled_roots(alpha, T, np.arange(1.0, _check_index(T, "j_max", j_max) + 1.0)) / T


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
    j = np.arange(1.0, _check_index(T, "j_max", j_max) + 1.0)
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
    A non-finite omega, phase or 2 (omega T + phase) raises
    :class:`DomainError`.
    """
    check_inputs(T, omega=omega, phase=phase)
    if not np.all(np.greater(omega, 0.0)):
        raise DomainError("omega must be positive")
    with np.errstate(over="ignore"):
        arg = 2.0 * (np.multiply(omega, T) + phase)
    check_inputs(T, **{"2 (omega T + phase)": arg})
    return 0.5 * (T - (np.sin(arg) - np.sin(2.0 * phase)) / (2.0 * omega))


def _channel_real_factor(alpha, beta, T, u1, u2):
    """The channel kernel's real symmetric factor R(u1, u2),
    (-4 beta^2/alpha)(e^{alpha|u1-u2|} - e^{alpha(T-u1)} e^{alpha(T-u2)}):
    every exponent is <= 0, so no horizon overflows."""
    tail = np.exp(alpha * (T - u1)) * np.exp(alpha * (T - u2))
    return (-4.0 * beta * beta / alpha) * (np.exp(alpha * np.abs(u1 - u2)) - tail)


def _channel_kernel_factors(alpha, beta, lam, T, u1, u2):
    """Scalar kernel factor c_k(u1, u2) = e^{i f u1} R(u1, u2) e^{-i f u2} of
    the channel projection, f = (1 + 2 lambda) beta."""
    freq = (1.0 + 2.0 * lam) * beta
    real = _channel_real_factor(alpha, beta, T, u1, u2)
    return np.exp(1j * freq * u1) * real * np.exp(-1j * freq * u2)


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


def _nystrom_blocks(spec: SystemSpec, T: float, n_nodes: int, lam=None) -> list:
    """(alpha, beta, sqrt(w_i w_j) R(t_i, t_j)) per beta > 0 channel at the
    Gauss-Legendre nodes t_i and weights w_i on [0, T]; given a tilt lam,
    the complex block of the phased c_k(t_i, t_j) instead."""
    x, w = _gauss_legendre(n_nodes)
    t, sw = (x + 1.0) * (T / 2.0), np.sqrt(w * (T / 2.0))
    u1, u2, W = t[:, None], t[None, :], np.outer(sw, sw)
    return [(a, b, W * (_channel_real_factor(a, b, T, u1, u2) if lam is None
                        else _channel_kernel_factors(a, b, lam, T, u1, u2)))
            for a, b in spectral_decompose(spec).pairs if b > 0.0]


def _nystrom_eigvals(spec: SystemSpec, T: float, n_nodes: int, lam=None) -> np.ndarray:
    """The eigenvalues of ``_nystrom_blocks``, each block's twice (for its
    conjugate channel), and n_nodes zeros per beta = 0 channel, descending."""
    n_nodes = check_integer("n_nodes", n_nodes)
    if not n_nodes >= 8:
        raise DomainError("n_nodes must be >= 8")
    blocks = _nystrom_blocks(spec, T, n_nodes, lam)
    vals = [np.zeros(n_nodes * (spec.dim - 2 * len(blocks)))]
    for _, _, B in blocks:
        try:
            vals += [np.linalg.eigvalsh(B)] * 2
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"Nystrom eigensolve failed at T={T!r}") from exc
    return np.sort(np.concatenate(vals))[::-1]


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
    blocks sqrt(w_i w_j) c_k(t_i, t_j) of the beta > 0 channels, each counted
    twice (for its conjugate), plus n_nodes zeros per beta = 0 channel.
    c_k = e^{i f u1} R(u1, u2) e^{-i f u2}, f = (1 + 2 lambda) beta, is a
    diagonal unitary similarity of the real symmetric R, the kernel at
    lambda = -1/2 (the fixed point of lambda -> -1 - lambda), so one real
    ``eigvalsh`` of R's block per channel gives them and lam is validated
    only (the benchmark's ``finite_horizon`` workload passes it).  Check 03
    of ``verify`` and the tests still measure lambda-dependence, on the
    phased complex blocks (``_nystrom_eigvals`` with a tilt) and on the
    whole matrix assembled from ``kernel_eval``.

    This is the independent oracle for the analytic spectrum: it never
    touches the Sturm-Liouville roots.  The kernel's kink along u1 = u2
    limits the quadrature order; tolerances of ~1e-4 at n=400 account for
    that.  No horizon overflows, but the kernel decays like
    e^{alpha |u1 - u2|}, so accuracy needs enough nodes per unit of
    |alpha| T: at 400 nodes the pi/4 magnetic example gives 8.44 at T = 300
    against the analytic 7.998.
    """
    check_inputs(T, lam=lam)
    return _nystrom_eigvals(spec, T, n_nodes)


def trace_closed_form(spec: SystemSpec, T: float) -> float:
    """Exact trace of the kernel operator,

        2 [ tr(N' M^{-1} (e^{MT} - I) M^{-1} N) - T tr(N' M^{-1} N) ],

    computed by direct matrix arithmetic, with e^{MT} - I = V diag(expm1(w T)) V'
    from M = V diag(w) V' (no channel or Sturm-Liouville input), so it can
    serve as one side of the trace-identity cross-check.  A drift that is
    not stable (an eigenvalue 2 alpha_k of M at or above 0) raises
    :class:`DomainError`.
    """
    check_inputs(T)
    A = spec.A
    M, N = A + A.T, A - A.T  # Q-free: Gamma need not exist
    w, V = np.linalg.eigh(M)
    if not w[-1] < 0.0:
        raise DomainError(f"A is not stable: A + A' has the eigenvalue {w[-1]:.3g} >= 0")
    W = np.linalg.solve(M, N)
    term1 = float(np.sum(np.expm1(w * T) * np.sum((V.T @ W) ** 2, axis=1)))
    term2 = float(np.trace(W.T @ N))
    return 2.0 * (term1 - T * term2)


def _stretch(alpha: float, beta: float, T: float, j_start: int, J1: int) -> np.ndarray:
    """gamma_j for j_start <= j <= J1 from the Newton roots (none if J1 < j_start)."""
    if J1 < j_start:
        return np.zeros(0)
    x = _scaled_roots(alpha, T, np.arange(j_start, J1 + 1.0))
    return 8.0 * (beta / np.hypot(alpha, x / T)) ** 2


def _cut(alpha: float, T: float, J1: int):
    """The root map at the cut L = J1 pi for alpha < 0 (else
    :class:`DomainError`): X = X(L) from the scalar form of ``_scaled_roots``'
    Newton iteration.  Returns om = hypot(alpha, X/T) and, in the unit
    S = om T = hypot(c, X), p = c/S, ell = X/S and eps = 1/S (0 past overflow)."""
    if not alpha < 0.0:
        raise DomainError("alpha must be negative")
    L = J1 * math.pi
    c = min(max(-alpha * T, 1e-150), 1e150)
    x = L
    for _ in range(5):
        step = (x - L - math.atan(c / x)) / (1.0 + c / (x * x + c * c))
        x -= step
        if abs(step) <= 1e-8 * x:
            break
    om = math.hypot(alpha, x / T)
    return om, -alpha / om, x / T / om, 1.0 / (T * om)


def _em_terms(p: float, ell: float, eps: float, F1: float, F2: float, F3: float) -> float:
    """(pi/24) g'(L) - (7 pi^3/5760) g'''(L) over eps, g = F o X, from
    F1..F3 = S^k F^(k) at the cut and X' = q, X'' = 2 p ell eps^2 q^3,
    X''' = p eps^3 q^4 (6 ell^2 + 2 p^2 - 12 ell^2 q)."""
    q = 1.0 / (1.0 + p * eps)
    e2 = ell * ell
    g3 = F3 + eps * q * p * (6.0 * ell * F2 + F1 * (6.0 * e2 + 2.0 * p * p - 12.0 * e2 * q))
    return math.pi / 24.0 * q * F1 - 7.0 * math.pi**3 / 5760.0 * eps * eps * q**3 * g3


def gamma_tail(alpha: float, beta: float, T: float, j_start: int) -> float:
    """Analytic tail sum_{j >= j_start} gamma_j for one channel: Newton roots
    for j_start <= j <= 200, then the closure of the module docstring, as
    8 beta^2 T/om times terms in (p, ell, eps) of ``_cut``."""
    j_start = _check_index(T, "j_start", j_start, alpha=alpha, beta=beta)
    if beta == 0.0:
        return 0.0
    J1 = max(j_start - 1, _J_EXPLICIT)
    om, p, ell, eps = _cut(alpha, T, J1)
    phi = math.atan2(p, ell)
    r = phi / p if p > 1e-150 else 1.0 / ell  # phi/p
    z = phi * phi  # (phi - p ell)/p^2 by its Taylor series where it cancels
    w = (r * r * phi * (2 / 3 - z * (2 / 15 - z * (4 / 315 - z * (2 / 2835 - z * 4 / 155925))))
         if phi < 0.1 else (phi - p * ell) / (p * p))
    rem = r / math.pi + eps * (w / (2.0 * math.pi) + eps * _em_terms(
        p, ell, eps, -2.0 * ell, 6.0 * ell * ell - 2.0 * p * p, 24.0 * ell * (p * p - ell * ell)))
    return float(np.sum(_stretch(alpha, beta, T, j_start, J1))) + 8.0 * (beta / om) * beta * T * rem


def spectrum_gamma_tail(spectrum: Spectrum, T: float, j_start: int) -> float:
    """Sum of gamma_tail over every channel of the spectrum; the two members
    of a conjugate pair share their tail (only beta^2 enters), so each pair
    is solved once and counted twice."""
    j_start = _check_index(T, "j_start", j_start)
    return 2.0 * sum(gamma_tail(a, b, T, j_start) for a, b in spectrum.pairs if b > 0.0)


def _log_sin2_part(p: float, ell: float, v: float, dlt: float) -> float:
    """int_0^phi log(1 - (v/p^2) sin^2 psi) d psi, phi = atan2(p, ell), given
    dlt = p^2 - v, by the cached Gauss-Legendre rule.  The integrand is
    log|p^2 cos^2 psi + dlt sin^2 psi| - 2 log p.  Outside -4 <= v <= 1/2 a
    pair of its zeros +-zeta in t = psi or t = chi = pi/2 - psi (zeta real
    or imaginary) lies next to the interval; log|t^2 - zeta^2| is then
    integrated in closed form."""
    if p <= 1e-150 or ell <= 1e-20:  # phi ~ p or S > 1e22: below an ulp of the first part
        return 0.0
    phi = math.atan2(p, ell)
    nodes, wt = _gauss_legendre(_N_GAUSS)
    if -4.0 <= v <= 0.5:
        s = np.sin((nodes + 1.0) * (phi / 2.0)) / p
        return phi / 2.0 * float(wt @ np.log1p(-v * s * s))
    if v < 0.0 or p * p < 0.5:  # zeros next to psi = 0 (dlt < 0 if v > 1/2 > p^2)
        t0, P1, P2 = 0.0, dlt, p * p
        zeta = 1j * math.atanh(p / math.sqrt(dlt)) if v < 0.0 else math.atan2(p, math.sqrt(-dlt))
    else:  # zeros next to chi = 0
        t0, P1, P2 = math.atan2(ell, p), p * p, dlt
        zeta = math.atan2(math.sqrt(-dlt), p) if dlt < 0.0 else 1j * math.atanh(math.sqrt(dlt) / p)
    t = t0 + (nodes + 1.0) * (phi / 2.0)
    s, c = np.sin(t), np.cos(t)

    def G(w):  # Re w (log w - 1), an antiderivative of log|w| along the real axis; 0 at 0
        return w.real * (math.log(abs(w)) - 1.0) - w.imag * math.atan2(w.imag, w.real) if w else 0.0

    ends = sum(G(t0 + phi - z) - G(t0 - z) for z in (zeta, -zeta))
    near = np.abs(t - zeta) * np.abs(t + zeta)
    return ends - 2.0 * phi * math.log(p) + phi / 2.0 * float(
        wt @ np.log(np.abs(P1 * s * s + P2 * c * c) / near))


def log_det_tail(alpha: float, beta: float, T: float, theta: float, j_start: int) -> float:
    """Analytic tail sum_{j >= j_start} log(1 - theta gamma_j) for one
    channel, -inf iff theta gamma_{j_start} >= 1: log1p over Newton roots for
    j_start <= j <= J1, then the closure of the module docstring.  In the
    units of ``_cut`` its first part is S (-ell log(1 - v) - 2E), v = u/S^2,
    with E = p atan(p/ell) - A atan(A/ell) formed without cancellation: as
    v atan(p/ell)/(p + A) + A atan(tan(atan(p/ell) - atan(A/ell))) for
    A^2 = p^2 - v >= 0, else as p atan(p/ell) + a atanh(a/ell), a^2 = -A^2.
    p^2 - v = -ws/om^2, ws = 8 theta beta^2 - alpha^2, and 1 - v = ell^2 + p^2 - v
    keep their digits where theta gamma nears 1 at the cut."""
    j_start = _check_index(T, "j_start", j_start, alpha=alpha, beta=beta, theta=theta)
    if beta == 0.0 or theta == 0.0:
        return 0.0
    J1 = max(j_start - 1, _J_EXPLICIT)
    ws = 8.0 * theta * beta * beta - alpha * alpha
    if ws > -1e-14 * alpha * alpha:  # theta g_inf >= 1 - 1e-14: solve root j_start, clear X*
        m = min(T * math.sqrt(max(ws, 0.0)) / math.pi, j_start)  # X*/pi, capped past any root >= j_start
        J1 = max(J1, j_start, math.ceil(m + _CLEARANCE / math.pi))
    g = _stretch(alpha, beta, T, j_start, J1)
    if g.size and abs(theta) * float(g[0]) > 1e300:  # theta g may overflow (g[0] is the largest)
        if theta > 0.0:
            return -math.inf
        explicit = float(np.sum(np.log(g) + np.log(1.0 / g - theta)))  # 1/g - theta: a sum of positives
    else:
        arg = theta * g
        if np.any(arg >= 1.0):
            return -math.inf
        explicit = float(np.sum(np.log1p(-arg)))
    om, p, ell, eps = _cut(alpha, T, J1)
    b = beta / om
    v = theta * 8.0 * b * b
    dlt = p * p - v if math.isinf(ws) else -ws / om / om  # p^2 - v
    A, omv = math.sqrt(abs(dlt)), ell * ell + dlt  # 1 - v
    if not omv > 0.0:  # 1 - theta gamma at the cut is below the float range
        return -math.inf
    E = (v * math.atan2(p, ell) / (p + A) + A * math.atan(v * ell / ((p + A) * (ell * ell + p * A)))
         if dlt >= 0.0 else p * math.atan2(p, ell) + A * math.atanh(A / ell))
    log1mv = math.log1p(-v) if abs(v) < 0.5 else math.log(omv)
    d, R = v / omv, 1.0 / omv  # F' to F''' from 1/(P - u) - 1/P = u/(P (P - u))
    F = (2.0 * ell * d, 2.0 * d - 4.0 * ell * ell * d * (R + 1.0),
         d * (16.0 * ell**3 * (R * R + R + 1.0) - 12.0 * ell * (R + 1.0)))
    rem = (T * (om * (-ell * log1mv - 2.0 * E)) + _log_sin2_part(p, ell, v, dlt)) / math.pi
    return explicit + rem + eps * _em_terms(p, ell, eps, *F)
