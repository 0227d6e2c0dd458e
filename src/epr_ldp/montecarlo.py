"""Trajectory simulation and empirical estimates for the EPR functional.

Two state-stepping schemes are provided: exact OU transitions (correct in
law for any step size) and Euler--Maruyama (needed when the driving
increments themselves enter the functional).  The per-trajectory noise
streams are counter-based Philox substreams keyed on (seed, trajectory
index) and consumed in fixed time-major order, so ensembles are
bit-identical however the work is chunked or distributed.  Trajectory k's
generator is Philox with the 128-bit key (seed mod 2^64, k) and counter 0,
the state ``Philox(key=[seed, k])`` builds; it is handed that key through a
fixed seed sequence (``_Key``), which skips the entropy-seeded
``SeedSequence`` that ``Philox(key=...)`` builds and then ignores.  Ensemble
states are component-major, shape (d, n_traj), and each noise window has
shape (steps, d, n_traj), so a step multiplies contiguous rows; the layout
does not change which deviates a trajectory draws.  Windows are drawn in
slabs of whole steps and stepped in time blocks with one stacked call per
block for each of the noise terms, bilinear products and their sums; only
the state recursion loops per step.  Sums keep their order of additions,
so slabs and blocks leave every sample's bits unchanged.

An ensemble is split into w contiguous trajectory ranges, w = the number
of usable CPUs but at most n_traj // _MIN_TRAJ_PER_WORKER.  The caller
steps the first range and w - 1 workers started with ``fork`` step the
others; their samples are concatenated in trajectory order.  Where fork
is unavailable, in a daemonic process (which may not have children) and
for ensembles too small to split, the caller steps every trajectory
itself.  The samples are the same bits for any worker count (tested for
1, 2 and 3 workers), and neither the config fingerprint nor the ensemble
metadata records the count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from typing import Iterator, NamedTuple, Optional, Union

import numpy as np

from .errors import ConfigError, DomainError, NumericError
from .model import (SystemSpec, _require_valid, _sym_eig_sqrt, check_inputs, check_integer,
                    check_real, check_start, check_type, spectral_decompose)

__all__ = [
    "SimConfig",
    "EprEnsemble",
    "MgfEstimate",
    "TailEstimate",
    "simulate_epr",
    "simulate_z_integral",
    "empirical_mgf",
    "tail_estimate",
]

_MASK64 = (1 << 64) - 1
# Target number of resident normal deviates per drawing window; windows
# only batch the generator calls and never change per-trajectory streams.
# Each extra window costs one more standard_normal call per trajectory, so
# wide ensembles want few windows.  On a 2-core x86-64 VM a 2e6 window cut
# a 1e4-trajectory x 1e3-step ensemble from 2.0e7 to 1.7e7
# trajectory-steps/s (peak RSS 125 -> 56 MB).  With time-blocked stepping a
# narrow 64 x 5e4 ensemble takes the same time with either window (0.28-0.40
# s in process); the smaller one only lowers its peak RSS (87 -> 54 MB).
# Wide ensembles dominate the Monte Carlo checks, so the window stays at 2e7.
_WINDOW_VALUES = 20_000_000
# Doubles in the buffer that stages each window's per-trajectory draws
# before their transposed copy into the component-major window.
_DRAW_VALUES = 131_072
# Doubles per time-block array of the step loops.  On a 2-core x86-64 VM,
# 2^15, 2^16 and 2^17 ran 64 x 5e4 and 1e4 x 1e3 ensembles equally fast
# (medians of 3); blocks ran the narrow one 2.4-3x faster than steps.
_BLOCK_VALUES = 65_536
# Fewest trajectories per process of a shared ensemble.  A forked worker
# costs a fixed 15-50 ms: on a 2-core x86-64 VM, 1000 steps split over two
# processes ran at 0.73x the serial speed for 1000 trajectories and at
# 1.25x for 2000.
_MIN_TRAJ_PER_WORKER = 1000

_SCHEMES = ("exact_ou", "euler_maruyama")


@dataclasses.dataclass(frozen=True)
class SimConfig:
    """Simulation request: horizon, step, ensemble size, seed, scheme, start.

    ``dt=None`` resolves to 1e-3 * min(1, 1/||A||_2) at simulation time.
    ``start`` is either the string "stationary" or an explicit state vector.
    """

    T: float
    dt: Optional[float] = None
    n_traj: int = 10_000
    seed: int = 0
    scheme: str = "exact_ou"
    start: Union[str, tuple] = "stationary"

    def __post_init__(self) -> None:
        T = check_real("T", self.T, ConfigError)
        if not T > 0:
            raise ConfigError("T must be positive")
        check_inputs(T)
        if self.dt is not None:
            dt = check_real("dt", self.dt, ConfigError)
            if not 0 < dt <= T:
                raise ConfigError("dt must satisfy 0 < dt <= T")
            object.__setattr__(self, "dt", dt)
        n_traj = check_integer("n_traj", self.n_traj, ConfigError)
        if not n_traj >= 1:
            raise ConfigError("n_traj must be >= 1")
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"scheme must be one of {_SCHEMES}")
        if isinstance(self.start, str):
            if self.start != "stationary":
                raise ConfigError("start must be 'stationary' or a state vector")
        else:
            vec = tuple(check_real("start", v, ConfigError)
                        for v in np.asarray(self.start, dtype=object).reshape(-1))
            check_inputs(T, start=vec)
            object.__setattr__(self, "start", vec)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "n_traj", n_traj)
        object.__setattr__(self, "seed", check_integer("seed", self.seed, ConfigError))

    def fingerprint(self) -> str:
        """sha256[:16] of the canonical JSON of the fields."""
        return _fingerprint(dataclasses.asdict(self))


def _fingerprint(data) -> str:
    """sha256[:16] of the canonical JSON of ``data``."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclasses.dataclass(frozen=True, eq=False)
class EprEnsemble:
    """Per-trajectory EPR samples with the originating config fingerprint."""

    samples: np.ndarray
    T: float
    config: str
    metadata: dict = dataclasses.field(default_factory=dict)


class MgfEstimate(NamedTuple):
    value: float
    stderr: float


class TailEstimate(NamedTuple):
    probability: float
    log_rate: float
    side: str
    censored: bool


def _step_grid(spec: SystemSpec, config: SimConfig,
               a_norm: Optional[float] = None) -> tuple[float, int]:
    """The step h = T / n_steps nearest the requested (or default) dt; a_norm is ||A||_2."""
    if config.dt is not None:
        h = config.dt
    else:
        h = 1e-3 * min(1.0, 1.0 / (a_norm or float(np.linalg.norm(spec.A, 2))))
    n_steps = max(1, int(round(config.T / h)))
    return config.T / n_steps, n_steps


class _Key:
    """A seed sequence whose state is one given (2,) uint64 Philox key:
    ``Philox(_Key(key))`` starts at counter 0 with that key, as
    ``Philox(key=key)`` does, but reads no OS entropy.  It is registered as
    a ``numpy.random.bit_generator.ISeedSequence`` on first use, so that
    importing the package does not load ``numpy.random``."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray) -> None:
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.key


def _trajectory_generators(seed: int, lo: int, hi: int) -> list:
    """The Philox streams keyed (seed, k) of trajectories lo <= k < hi.

    Each is the same bits as ``Generator(Philox(key=[seed & _MASK64, k]))``
    (key array uint64, counter 0); the keys of the range are built as one
    (hi - lo, 2) array and passed through ``_Key``."""
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_Key)
    keys = np.empty((hi - lo, 2), dtype=np.uint64)
    keys[:, 0] = seed & _MASK64
    keys[:, 1] = np.arange(lo, hi, dtype=np.uint64)
    return [np.random.Generator(np.random.Philox(_Key(key))) for key in keys]


def _windows(n_steps: int, n_traj: int, dim: int) -> Iterator[int]:
    size = max(1, _WINDOW_VALUES // max(1, n_traj * dim))
    for done in range(0, n_steps, size):
        yield min(size, n_steps - done)


def _draw_block(gens: list, window: np.ndarray) -> None:
    """Fill a (steps, dim, n_traj) window: trajectory i's deviates, from its
    own stream, fill window[:, :, i].  They are staged in slabs of whole
    steps, in a buffer of about _DRAW_VALUES doubles that holds at least 16
    trajectories, so each transposed copy writes 128 contiguous bytes."""
    steps, dim, n = window.shape
    rows = min(n, max(16, _DRAW_VALUES // (steps * dim)))
    buf = np.empty((rows, max(1, min(steps, _DRAW_VALUES // (rows * dim))), dim))
    for start in range(0, n, rows):
        chunk = gens[start:start + rows]
        for j in range(0, steps, buf.shape[1]):
            slab = buf[:len(chunk), :steps - j]
            for row, g in zip(slab, chunk):
                g.standard_normal(out=row)
            window[j:j + slab.shape[1], :, start:start + len(chunk)] = slab.transpose(1, 2, 0)


def _blocks(x: np.ndarray, draws: tuple, sums: int):
    """Draw the windows of draws = (gens, n_steps, n_traj) into one array
    sized for the whole ensemble, so the processes sharing it hold one
    window's worth, and cut each into blocks of b steps, b sized from the
    range's shape.  Yield per block its (k, d, n) deviates Z (read only) and
    work array P, its (k + 1, d, n) states X and work array R, and (k + 1, n)
    rows: a work row w and ``sums`` running sums.  X[0] is the state entering
    the block and row 0 of a sum its total so far; the caller fills X[1:]
    and puts the block's k terms in rows 1..k of the sums.  numpy adds the
    rows of a C-contiguous (k + 1, n >= 2) array in order, so the new totals
    are one running sum's additions."""
    gens, n_steps, n_traj = draws
    b, window = max(1, _BLOCK_VALUES // x.size), None
    for take in _windows(n_steps, n_traj, len(x)):
        if window is None:  # the first window is the largest
            b = min(b, take)
            window = np.empty((take,) + x.shape)
            X, R, P = np.empty((3, b + 1) + x.shape)
            S = np.zeros((1 + sums, b + 1, x.shape[1]))
            X[0] = x
        _draw_block(gens, window[:take])
        for j in range(0, take, b):
            k = min(b, take - j)
            yield (window[j:j + k], P[:k], X[:k + 1], R[:k + 1], *S[:, :k + 1])
            X[0] = X[k]
            S[1:, 0] = S[1:, :k + 1].sum(axis=1)


def _exact_block(X, Z, R, E, root) -> None:
    """X[j + 1] = E X[j] + root Z[j], the root Z terms stacked in R[1:].  A
    step's ``dot`` into out= makes the BLAS call of ``matmul`` in half its time."""
    np.matmul(root, Z, out=R[1:])
    for x0, x1, r in zip(X[:-1], X[1:], R[1:]):
        E.dot(x0, out=x1)
        x1 += r


def _trapezoid(R, w, acc, h) -> None:
    """acc[1:] = h/2 (w[:-1] + w[1:]) with w = |R|^2."""
    np.einsum("kit,kit->kt", R, R, out=w)
    np.add(w[:-1], w[1:], out=acc[1:])
    acc[1:] *= 0.5 * h


def _stationary_root(spec: SystemSpec) -> np.ndarray:
    """Symmetric square root of the stationary covariance Gamma = -Q M^{-1},
    which solves the Lyapunov identity A Gamma + Gamma A' + Q = 0."""
    A = spec.A
    try:
        gamma = np.linalg.solve(A + A.T, -spec.Q)  # = -M^{-1} Q (commuting)
    except np.linalg.LinAlgError as exc:
        raise NumericError("symmetric part M is singular") from exc
    w, root = _sym_eig_sqrt(gamma)
    if not w[0] > 0.0:
        raise NumericError("stationary covariance is not positive definite")
    return root


def _exact_step_matrices(
    spec: SystemSpec, lam: float, Q: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact steps of h for the drift D = A + lam N driven by noise Q.

    The mean map is e^{Dh} = Re sum_k e^{(alpha_k + i(1+2 lam) beta_k) h} U_k U_k*
    over the channels of A, and the root is a square root of the step
    covariance Sigma_h = M^{-1}(e^{Mh} - I) Q = V diag(expm1(w h)/w) V' Q
    from M = V diag(w) V' (the tilt keeps M = A + A')."""
    sp = spectral_decompose(spec)
    U = sp.vectors
    phases = np.exp((sp.alphas + 1j * (1.0 + 2.0 * lam) * sp.betas) * h)
    E = np.ascontiguousarray(((U * phases) @ U.conj().T).real)
    w, V = np.linalg.eigh(spec.A + spec.A.T)
    x = w * h
    sigma = (V * (h * np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0))) @ V.T @ Q
    sigma = (sigma + sigma.T) / 2.0
    try:
        root = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        w, root = _sym_eig_sqrt(sigma)
        if w[0] < -1e-12 * max(1.0, float(np.max(np.abs(w)))):
            raise NumericError("step covariance is not positive semidefinite")
    return E, root


def _start_states(gens: list, start: np.ndarray) -> np.ndarray:
    """(d, len(gens)) starting states.  ``start`` is either a fixed (d,)
    state or the (d, d) symmetric root of Gamma, which maps the first d
    deviates of each trajectory's stream to a stationary draw."""
    if start.ndim == 1:
        return np.repeat(start[:, None], len(gens), axis=1)
    z = np.empty((len(gens), len(start)))
    for row, g in zip(z, gens):
        g.standard_normal(out=row)
    return np.ascontiguousarray((z @ start).T)


def _worker_count(n_traj: int) -> int:
    """Processes, the caller included, that share an ensemble of n_traj
    trajectories: one per usable CPU, but at least _MIN_TRAJ_PER_WORKER
    trajectories each, and 1 where no child can be forked."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    w = min(cpus, n_traj // _MIN_TRAJ_PER_WORKER)
    if w < 2:
        return 1
    import multiprocessing

    if (multiprocessing.current_process().daemon  # may have no children
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return w


def _over_ranges(step_fn, config: SimConfig, *args) -> np.ndarray:
    """``_range(step_fn, config, lo, hi, *args)`` over contiguous ranges of
    the trajectories [0, n_traj), concatenated in index order.  The caller
    runs the first range; forked workers run the others.  A trajectory's
    samples depend only on its own stream, so they are the same bits for
    any number of ranges."""
    n = config.n_traj
    w = _worker_count(n)
    if w == 1:
        return _range(step_fn, config, 0, n, *args)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    bounds = [n * i // w for i in range(w + 1)]
    try:
        with ProcessPoolExecutor(w - 1, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_range, step_fn, config, lo, hi, *args)
                       for lo, hi in zip(bounds[1:-1], bounds[2:])]
            parts = [_range(step_fn, config, 0, bounds[1], *args)]
            parts += [f.result() for f in futures]
    except BrokenProcessPool as exc:
        raise NumericError(f"a Monte Carlo worker process died: {exc}") from exc
    return np.concatenate(parts)


def _range(step_fn, config: SimConfig, lo: int, hi: int, n_steps: int,
           start: np.ndarray, *args) -> np.ndarray:
    """Samples of trajectories [lo, hi): ``step_fn(x, draws, *args)`` on their
    starting states and the :func:`_blocks` draws of their n_steps."""
    gens = _trajectory_generators(config.seed, lo, hi)
    return step_fn(_start_states(gens, start), (gens, n_steps, config.n_traj), *args)


def _exact_ou_steps(x, draws, E, root, K) -> np.ndarray:
    """T e_p = -sum_j X_j' K X_{j+1} under exact OU steps."""
    for Z, _, X, R, _, acc in _blocks(x, draws, 1):
        _exact_block(X, Z, R, E, root)
        np.matmul(K.T, X[:-1], out=R[1:])
        np.einsum("kit,kit->kt", R[1:], X[1:], out=acc[1:])
    return -acc[0]


def _euler_steps(x, draws, h, A, sqrt_q, C) -> np.ndarray:
    """T e_p = Ito sum + trapezoid time integral under Euler--Maruyama steps."""
    sqrt_h = math.sqrt(h)
    # overflow of an unstable step is detected on the whole ensemble and
    # raised as NumericError, so silence the intermediate warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for Z, dB, X, R, w, ito, time_int in _blocks(x, draws, 2):
            np.multiply(Z, sqrt_h, out=dB)
            np.matmul(sqrt_q, dB, out=R[1:])
            for x0, x1, r in zip(X[:-1], X[1:], R[1:]):
                A.dot(x0, out=x1)
                x1 *= h
                x1 += x0
                x1 += r
            np.matmul(C, X, out=R)
            np.einsum("kit,kit->kt", R[:-1], dB, out=ito[1:])
            _trapezoid(R, w, time_int, h)
        return ito[0] + 0.5 * time_int[0]


def _z_steps(y, draws, h, E, root, N) -> np.ndarray:
    """int_0^T |N Y_s|^2 ds under exact steps, trapezoid in time."""
    for Z, _, X, R, w, acc in _blocks(y, draws, 1):
        _exact_block(X, Z, R, E, root)
        np.matmul(N, X, out=R)
        _trapezoid(R, w, acc, h)
    return acc[0].copy()


def simulate_epr(spec: SystemSpec, config: SimConfig) -> EprEnsemble:
    """Ensemble of e_p(T) samples.

    exact_ou accumulates T*e_p = -sum_i X_i' (Q^{-1}N) X_{i+1}: the Ito
    integral of the path functional is rewritten against dX, the drift
    integrand then cancels the explicit time integral pointwise, and the
    midpoint rule for the remaining dX term is exact in expectation per
    step up to O(h) (the Ito/Stratonovich correction vanishes, N being
    skew).  euler_maruyama keeps the driving increments and accumulates
    the Ito sum plus the trapezoid time integral directly.  Both need a
    system of the model class: one that fails an error-severity check of
    :func:`~epr_ldp.model.validate_system` raises :class:`DomainError`
    naming every such check, before any work.
    """
    _require_valid(spec)
    A = spec.A
    a_norm = float(np.linalg.norm(A, 2))
    h, n_steps = _step_grid(spec, config, a_norm)
    N = A - A.T
    metadata = {"dt": h, "n_steps": n_steps, "scheme": config.scheme,
                "warnings": []}
    if h > 0.1 / a_norm:
        metadata["warnings"].append(
            f"dt={h:g} exceeds 0.1/||A||={0.1 / a_norm:g}; "
            "discretization bias may dominate"
        )
    if config.start == "stationary":
        start = _stationary_root(spec)
    else:
        start = check_start(spec, config.start, ConfigError)[1]

    if config.scheme == "exact_ou":
        E, root = _exact_step_matrices(spec, 0.0, spec.Q, h)
        K = np.linalg.solve(spec.Q, N)
        acc = _over_ranges(_exact_ou_steps, config, n_steps, start, E, root, K)
    else:
        sqrt_q = _sym_eig_sqrt(spec.Q)[1]
        C = np.linalg.solve(sqrt_q, N)  # Q^{-1/2} N
        acc = _over_ranges(_euler_steps, config, n_steps, start, h, A, sqrt_q, C)
    samples = acc / config.T
    if not np.all(np.isfinite(samples)):
        raise NumericError(
            "non-finite EPR samples (unstable discretization step?)"
        )
    samples.setflags(write=False)
    return EprEnsemble(
        samples=samples, T=config.T, config=config.fingerprint(),
        metadata=metadata,
    )


def simulate_z_integral(
    spec: SystemSpec, lam: float, x, config: SimConfig
) -> np.ndarray:
    """Samples of int_0^T |N Y_s|^2 ds for the tilted unit-noise process
    started at x, exact state steps and trapezoid time integration."""
    check_inputs(config.T, lam=lam, x=x)
    spectrum, start = check_start(spec, x, ConfigError)
    h, n_steps = _step_grid(spec, config)
    E, root = _exact_step_matrices(spec, lam, np.eye(spectrum.dim), h)
    acc = _over_ranges(_z_steps, config, n_steps, start, h, E, root, spec.A - spec.A.T)
    acc.setflags(write=False)
    return acc


def empirical_mgf(ensemble: EprEnsemble, lam: float) -> MgfEstimate:
    """(1/T) log mean exp(lam T e_p) with a leave-one-out jackknife error.

    Evaluated through log-sum-exp, shifted by the sample s* that maximises
    lam s before the product with T: the exponents lam (s - s*) T are <= 0,
    so no |lam| up to the double range overflows to inf - inf, and a value
    lam s* beyond that range is +inf.  A single dominating sample, whose
    leave-one-out sum cancels to 0 (log -inf), drives the jackknife spread
    to infinity, which is the honest diagnostic near the domain boundary.
    """
    check_inputs(check_type(ensemble, EprEnsemble).T, lam=lam)
    s = np.asarray(ensemble.samples, dtype=float)
    n = s.size
    if n == 0:
        raise DomainError("empty ensemble")
    if lam == 0.0:
        return MgfEstimate(0.0, 0.0)
    T, lam = ensemble.T, float(lam)
    top = float(np.max(s) if lam > 0.0 else np.min(s))
    with np.errstate(over="ignore"):
        a = lam * (s - top) * T
    total = math.log(float(np.sum(np.exp(a))))
    value = lam * top + (total - math.log(n)) / T
    if n < 2:
        return MgfEstimate(value, math.inf)
    with np.errstate(divide="ignore"):
        loo = total + np.log1p(-np.exp(np.minimum(a - total, 0.0)))
    if np.isneginf(loo).any():
        return MgfEstimate(value, math.inf)
    v = (loo - math.log(n - 1)) / T
    center = float(np.mean(v))
    stderr = math.sqrt((n - 1) / n * float(np.sum((v - center) ** 2)))
    return MgfEstimate(float(value), stderr)


def tail_estimate(ensemble: EprEnsemble, x_threshold: float) -> TailEstimate:
    """Empirical tail probability of e_p(T) past x_threshold and its
    log-rate -(1/T) log p; the tail side is chosen by the sample mean."""
    check_inputs(check_type(ensemble, EprEnsemble).T, x_threshold=x_threshold)
    s = np.asarray(ensemble.samples, dtype=float)
    if s.size == 0:
        raise DomainError("empty ensemble")
    if x_threshold >= float(np.mean(s)):
        side = "upper"
        hits = int(np.count_nonzero(s >= x_threshold))
    else:
        side = "lower"
        hits = int(np.count_nonzero(s <= x_threshold))
    p = hits / s.size
    if hits == 0:
        return TailEstimate(0.0, math.inf, side, True)
    return TailEstimate(p, -math.log(p) / ensemble.T, side, False)
