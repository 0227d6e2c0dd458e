"""Trajectory simulation and empirical estimates for the EPR functional.

Two state-stepping schemes are provided: exact OU transitions (correct in
law for any step size) and Euler--Maruyama (needed when the driving
increments themselves enter the functional).  The per-trajectory noise
streams are counter-based Philox substreams keyed on (seed, trajectory
index) and consumed in fixed time-major order, so ensembles are
bit-identical however the work is chunked or distributed.  Ensemble
states are component-major, shape (d, n_traj), and each noise window has
shape (steps, d, n_traj), so a step multiplies contiguous rows; the layout
does not change which deviates a trajectory draws.

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
from .model import (
    SystemSpec,
    _sym_sqrt,
    check_inputs,
    check_integer,
    spectral_decompose,
)

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
_WINDOW_VALUES = 20_000_000
# Doubles in the buffer that stages each window's per-trajectory draws
# before their transposed copy into the component-major window.
_DRAW_VALUES = 131_072
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
        if not self.T > 0:
            raise ConfigError("T must be positive")
        check_inputs(self.T)
        if self.dt is not None:
            if not 0 < self.dt <= self.T:
                raise ConfigError("dt must satisfy 0 < dt <= T")
            object.__setattr__(self, "dt", float(self.dt))
        n_traj = check_integer("n_traj", self.n_traj, ConfigError)
        if not n_traj >= 1:
            raise ConfigError("n_traj must be >= 1")
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"scheme must be one of {_SCHEMES}")
        if isinstance(self.start, str):
            if self.start != "stationary":
                raise ConfigError("start must be 'stationary' or a state vector")
        else:
            vec = tuple(float(v) for v in np.asarray(self.start).reshape(-1))
            check_inputs(self.T, start=vec)
            object.__setattr__(self, "start", vec)
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "n_traj", n_traj)
        object.__setattr__(self, "seed", check_integer("seed", self.seed, ConfigError))

    def fingerprint(self) -> str:
        """sha256[:16] of the canonical JSON of the fields."""
        payload = {
            "T": self.T,
            "dt": self.dt,
            "n_traj": self.n_traj,
            "seed": self.seed,
            "scheme": self.scheme,
            "start": list(self.start) if not isinstance(self.start, str) else self.start,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
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


def _step_grid(spec: SystemSpec, config: SimConfig) -> tuple[float, int]:
    """The step h = T / n_steps nearest the requested (or default) dt."""
    if config.dt is not None:
        h = config.dt
    else:
        h = 1e-3 * min(1.0, 1.0 / float(np.linalg.norm(spec.A, 2)))
    n_steps = max(1, int(round(config.T / h)))
    return config.T / n_steps, n_steps


def _trajectory_generators(seed: int, lo: int, hi: int) -> list:
    """The Philox streams keyed (seed, k) of trajectories lo <= k < hi."""
    key0 = seed & _MASK64
    return [
        np.random.Generator(
            np.random.Philox(key=np.array([key0, k], dtype=np.uint64))
        )
        for k in range(lo, hi)
    ]


def _windows(n_steps: int, n_traj: int, dim: int) -> Iterator[int]:
    size = max(1, _WINDOW_VALUES // max(1, n_traj * dim))
    done = 0
    while done < n_steps:
        take = min(size, n_steps - done)
        yield take
        done += take


def _draw_block(gens: list, window: np.ndarray) -> None:
    """Fill a (steps, dim, n_traj) window, component-major: trajectory i's
    steps * dim deviates, drawn in one call from its own stream, fill
    window[:, :, i].  They are staged in a buffer of about _DRAW_VALUES
    doubles (at least one trajectory) and copied in transposed."""
    per_traj = window.shape[0] * window.shape[1]
    columns = window.reshape(per_traj, len(gens))
    buf = np.empty((max(1, min(len(gens), _DRAW_VALUES // per_traj)), per_traj))
    for start in range(0, len(gens), len(buf)):
        chunk = gens[start:start + len(buf)]
        for row, g in zip(buf, chunk):
            g.standard_normal(out=row)
        columns[:, start:start + len(chunk)] = buf[:len(chunk)].T


def _noise(gens: list, n_steps: int, dim: int, n_traj: int) -> Iterator[np.ndarray]:
    """Each step's (dim, len(gens)) deviates, drawn window by window into one
    reused array; a step's row is overwritten once the next window is drawn.
    Windows are sized for the whole ensemble of n_traj trajectories, so the
    processes sharing an ensemble hold one window's worth of deviates."""
    block = None
    for take in _windows(n_steps, n_traj, dim):
        if block is None:  # the first window is the largest
            block = np.empty((take, dim, len(gens)))
        _draw_block(gens, block[:take])
        yield from block[:take]


def _stationary_root(spec: SystemSpec) -> np.ndarray:
    """Symmetric square root of the stationary covariance Gamma = -Q M^{-1},
    which solves the Lyapunov identity A Gamma + Gamma A' + Q = 0."""
    A = spec.A
    try:
        gamma = np.linalg.solve(A + A.T, -spec.Q)  # = -M^{-1} Q (commuting)
    except np.linalg.LinAlgError as exc:
        raise NumericError("symmetric part M is singular") from exc
    w, V = np.linalg.eigh((gamma + gamma.T) / 2.0)
    if not w[0] > 0.0:
        raise NumericError("stationary covariance is not positive definite")
    return (V * np.sqrt(w)) @ V.T


def _exact_step_matrices(
    spec: SystemSpec, lam: float, Q: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact steps of h for the drift D = A + lam N driven by noise Q.

    The mean map is e^{Dh} = Re sum_k e^{(alpha_k + i(1+2 lam) beta_k) h} U_k U_k*
    over the channels of A, and the root is a square root of the step
    covariance Sigma_h = M^{-1}(e^{Mh} - I) Q = V diag(expm1(w h)/w) V' Q
    from M = V diag(w) V' (the tilt keeps M = A + A')."""
    sp = spectral_decompose(spec, allow_reversible=True)
    U = sp.vectors
    E = ((U * np.exp((sp.alphas + 1j * (1.0 + 2.0 * lam) * sp.betas) * h)) @ U.conj().T).real
    w, V = np.linalg.eigh(spec.A + spec.A.T)
    x = w * h
    sigma = (V * (h * np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0))) @ V.T @ Q
    sigma = (sigma + sigma.T) / 2.0
    try:
        root = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(sigma)
        if np.min(w) < -1e-12 * max(1.0, float(np.max(np.abs(w)))):
            raise NumericError("step covariance is not positive semidefinite")
        root = V @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ V.T
    return E, root


def _fixed_start(x, d: int) -> np.ndarray:
    vec = np.asarray(x, dtype=float).reshape(-1)
    if vec.shape != (d,):
        raise ConfigError(f"start has shape {vec.shape}, expected ({d},)")
    return vec


def _start_states(gens: list, start: np.ndarray) -> np.ndarray:
    """(d, len(gens)) starting states.  ``start`` is either a fixed (d,)
    state or the (d, d) symmetric root of Gamma, which maps the first d
    deviates of each trajectory's stream to a stationary draw."""
    if start.ndim == 1:
        return np.repeat(start[:, None], len(gens), axis=1)
    z = np.empty((len(gens), len(start)))
    for i, g in enumerate(gens):
        z[i] = g.standard_normal(len(start))
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
    """Samples of trajectories [lo, hi): ``step_fn(x, noise, *args)`` on their
    starting states and n_steps of their noise."""
    gens = _trajectory_generators(config.seed, lo, hi)
    x = _start_states(gens, start)
    return step_fn(x, _noise(gens, n_steps, len(start), config.n_traj), *args)


def _exact_ou_steps(x, noise, E, root, K) -> np.ndarray:
    """T e_p under exact OU steps."""
    acc = np.zeros(x.shape[1])
    for z in noise:
        x_next = E @ x
        x_next += root @ z
        acc -= np.einsum("it,it->t", K.T @ x, x_next)
        x = x_next
    return acc


def _euler_steps(x, noise, h, A, sqrt_q, C) -> np.ndarray:
    """T e_p under Euler--Maruyama steps."""
    sqrt_h = math.sqrt(h)
    ito = np.zeros(x.shape[1])
    cx = C @ x
    w_cur = np.einsum("it,it->t", cx, cx)
    time_int = np.zeros(x.shape[1])
    # overflow of an unstable step is detected on the whole ensemble and
    # raised as NumericError, so silence the intermediate warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for z in noise:
            dB = sqrt_h * z
            ito += np.einsum("it,it->t", cx, dB)
            x = x + h * (A @ x)
            x += sqrt_q @ dB
            cx = C @ x
            w_next = np.einsum("it,it->t", cx, cx)
            time_int += 0.5 * h * (w_cur + w_next)
            w_cur = w_next
        return ito + 0.5 * time_int


def _z_steps(y, noise, h, E, root, N) -> np.ndarray:
    """int_0^T |N Y_s|^2 ds under exact steps, trapezoid in time."""
    ny = N @ y
    w_cur = np.einsum("it,it->t", ny, ny)
    acc = np.zeros(y.shape[1])
    for z in noise:
        y = E @ y
        y += root @ z
        ny = N @ y
        w_next = np.einsum("it,it->t", ny, ny)
        acc += 0.5 * h * (w_cur + w_next)
        w_cur = w_next
    return acc


def simulate_epr(spec: SystemSpec, config: SimConfig) -> EprEnsemble:
    """Ensemble of e_p(T) samples.

    exact_ou accumulates T*e_p = -sum_i X_i' (Q^{-1}N) X_{i+1}: the Ito
    integral of the path functional is rewritten against dX, the drift
    integrand then cancels the explicit time integral pointwise, and the
    midpoint rule for the remaining dX term is exact in expectation per
    step up to O(h) (the Ito/Stratonovich correction vanishes, N being
    skew).  euler_maruyama keeps the driving increments and accumulates
    the Ito sum plus the trapezoid time integral directly.
    """
    h, n_steps = _step_grid(spec, config)
    A = spec.A
    N = A - A.T
    metadata = {"dt": h, "n_steps": n_steps, "scheme": config.scheme,
                "warnings": []}
    a_norm = float(np.linalg.norm(A, 2))
    if h > 0.1 / a_norm:
        metadata["warnings"].append(
            f"dt={h:g} exceeds 0.1/||A||={0.1 / a_norm:g}; "
            "discretization bias may dominate"
        )
    if config.start == "stationary":
        start = _stationary_root(spec)
    else:
        start = _fixed_start(config.start, spec.dim)

    if config.scheme == "exact_ou":
        E, root = _exact_step_matrices(spec, 0.0, spec.Q, h)
        K = np.linalg.solve(spec.Q, N)
        acc = _over_ranges(_exact_ou_steps, config, n_steps, start, E, root, K)
    else:
        sqrt_q = _sym_sqrt(spec.Q)
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
    start = _fixed_start(x, spec.dim)
    check_inputs(config.T, lam=lam, x=start)
    h, n_steps = _step_grid(spec, config)
    E, root = _exact_step_matrices(spec, lam, np.eye(spec.dim), h)
    acc = _over_ranges(_z_steps, config, n_steps, start, h, E, root, spec.A - spec.A.T)
    acc.setflags(write=False)
    return acc


def empirical_mgf(ensemble: EprEnsemble, lam: float) -> MgfEstimate:
    """(1/T) log mean exp(lam T e_p) with a leave-one-out jackknife error.

    Evaluated through log-sum-exp; a single dominating sample drives the
    jackknife spread to infinity, which is the honest diagnostic near the
    domain boundary.
    """
    check_inputs(ensemble.T, lam=lam)
    s = np.asarray(ensemble.samples, dtype=float)
    n = s.size
    if n == 0:
        raise DomainError("empty ensemble")
    if lam == 0.0:
        return MgfEstimate(0.0, 0.0)
    T = ensemble.T
    a = lam * T * s
    shift = float(np.max(a))
    total = shift + math.log(float(np.sum(np.exp(a - shift))))
    value = (total - math.log(n)) / T
    if n < 2:
        return MgfEstimate(value, math.inf)
    with np.errstate(divide="ignore"):
        loo = total + np.log1p(-np.exp(np.minimum(a - total, 0.0)))
    v = (loo - math.log(n - 1)) / T
    center = float(np.mean(v))
    stderr = math.sqrt((n - 1) / n * float(np.sum((v - center) ** 2)))
    return MgfEstimate(float(value), stderr)


def tail_estimate(ensemble: EprEnsemble, x_threshold: float) -> TailEstimate:
    """Empirical tail probability of e_p(T) past x_threshold and its
    log-rate -(1/T) log p; the tail side is chosen by the sample mean."""
    check_inputs(ensemble.T, x_threshold=x_threshold)
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
