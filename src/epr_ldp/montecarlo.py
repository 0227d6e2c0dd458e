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
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, DomainError, NumericError
from .model import Spectrum, SystemSpec, _sym_sqrt, derived_matrices, spectral_decompose

__all__ = [
    "SimConfig",
    "TiltedSystem",
    "tilted_system",
    "EprEnsemble",
    "MgfEstimate",
    "TailEstimate",
    "sample_stationary",
    "ou_step_exact",
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
        if self.dt is not None:
            if not 0 < self.dt <= self.T:
                raise ConfigError("dt must satisfy 0 < dt <= T")
            object.__setattr__(self, "dt", float(self.dt))
        if not self.n_traj >= 1:
            raise ConfigError("n_traj must be >= 1")
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"scheme must be one of {_SCHEMES}")
        if isinstance(self.start, str):
            if self.start != "stationary":
                raise ConfigError("start must be 'stationary' or a state vector")
        else:
            vec = tuple(float(v) for v in np.asarray(self.start).reshape(-1))
            object.__setattr__(self, "start", vec)
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "n_traj", int(self.n_traj))
        object.__setattr__(self, "seed", int(self.seed))

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
class TiltedSystem:
    """Drift tilt D = A + lam N driving the unit-noise process Y.  D keeps
    the symmetric part M and the channel vectors U_k of A (``spectrum``);
    its eigenvalues are alpha_k + i (1 + 2 lam) beta_k."""

    lam: float
    D: np.ndarray
    spectrum: Spectrum


def tilted_system(spec: SystemSpec, lam: float) -> TiltedSystem:
    A = spec.A
    D = A + lam * (A - A.T)
    D.setflags(write=False)
    return TiltedSystem(lam=float(lam), D=D,
                        spectrum=spectral_decompose(spec, allow_reversible=True))


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


def _resolve_dt(spec: SystemSpec, config: SimConfig) -> float:
    if config.dt is not None:
        return config.dt
    a_norm = float(np.linalg.norm(spec.A, 2))
    return 1e-3 * min(1.0, 1.0 / a_norm)


def _trajectory_generators(seed: int, n_traj: int) -> list:
    key0 = seed & _MASK64
    return [
        np.random.Generator(
            np.random.Philox(key=np.array([key0, k], dtype=np.uint64))
        )
        for k in range(n_traj)
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


def _noise(gens: list, n_steps: int, dim: int) -> Iterator[np.ndarray]:
    """Each step's (dim, n_traj) deviates, drawn window by window into one
    reused array; a step's row is overwritten once the next window is drawn."""
    block = None
    for take in _windows(n_steps, len(gens), dim):
        if block is None:  # the first window is the largest
            block = np.empty((take, dim, len(gens)))
        _draw_block(gens, block[:take])
        yield from block[:take]


def sample_stationary(spec: SystemSpec, rng: np.random.Generator, size=None):
    """Draw from Gaussian(0, Gamma) via the symmetric square root of Gamma."""
    root = _sym_sqrt(derived_matrices(spec).Gamma)
    if size is None:
        return root @ rng.standard_normal(spec.dim)
    return rng.standard_normal((int(size), spec.dim)) @ root


def _exact_step_matrices(
    system: Union[SystemSpec, TiltedSystem], h: float
) -> tuple[np.ndarray, np.ndarray]:
    """One-step mean map e^{Dh} = Re sum_k e^{(alpha_k + i(1+2 lam) beta_k) h} U_k U_k*
    over the channels, and a square root of the step covariance
    Sigma_h = M^{-1}(e^{Mh} - I) Q = V diag(expm1(w h)/w) V' Q from
    M = V diag(w) V' (Q = identity for a tilted system)."""
    if isinstance(system, TiltedSystem):
        sp, lam, D, Q = system.spectrum, system.lam, system.D, np.eye(system.D.shape[0])
    else:
        sp, lam, D, Q = spectral_decompose(system, allow_reversible=True), 0.0, system.A, system.Q
    U = np.column_stack(sp.channel_vectors)
    E = ((U * np.exp((sp.alphas + 1j * (1.0 + 2.0 * lam) * sp.betas) * h)) @ U.conj().T).real
    w, V = np.linalg.eigh(D + D.T)
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


def ou_step_exact(
    system: Union[SystemSpec, TiltedSystem],
    x,
    h: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Advance the state by one exact-in-law OU transition of length h."""
    if not h > 0:
        raise DomainError("h must be positive")
    E, root = _exact_step_matrices(system, h)
    vec = np.asarray(x, dtype=float).reshape(-1)
    return E @ vec + root @ rng.standard_normal(vec.shape[0])


def _starts(
    spec: SystemSpec, config: SimConfig, gens: list
) -> np.ndarray:
    d = spec.dim
    if config.start == "stationary":
        root = _sym_sqrt(derived_matrices(spec).Gamma)
        z = np.empty((len(gens), d))
        for i, g in enumerate(gens):
            z[i] = g.standard_normal(d)
        return np.ascontiguousarray((z @ root).T)
    vec = np.asarray(config.start, dtype=float)
    if vec.shape != (d,):
        raise ConfigError(
            f"fixed start has shape {vec.shape}, expected ({d},)"
        )
    return np.repeat(vec[:, None], len(gens), axis=1)


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
    h = _resolve_dt(spec, config)
    n_steps = max(1, int(round(config.T / h)))
    h = config.T / n_steps
    d = spec.dim
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
    gens = _trajectory_generators(config.seed, config.n_traj)
    x = _starts(spec, config, gens)
    acc = np.zeros(config.n_traj)

    if config.scheme == "exact_ou":
        E, root = _exact_step_matrices(spec, h)
        K = np.linalg.solve(spec.Q, N)
        for z in _noise(gens, n_steps, d):
            x_next = E @ x
            x_next += root @ z
            acc -= np.einsum("it,it->t", K.T @ x, x_next)
            x = x_next
        samples = acc / config.T
    else:
        sqrt_q = _sym_sqrt(spec.Q)
        C = np.linalg.solve(sqrt_q, N)  # Q^{-1/2} N
        sqrt_h = math.sqrt(h)
        ito = np.zeros(config.n_traj)
        cx = C @ x
        w_cur = np.einsum("it,it->t", cx, cx)
        time_int = np.zeros(config.n_traj)
        # overflow of an unstable step is detected after the loop and raised
        # as NumericError, so silence the intermediate warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for z in _noise(gens, n_steps, d):
                dB = sqrt_h * z
                ito += np.einsum("it,it->t", cx, dB)
                x = x + h * (A @ x)
                x += sqrt_q @ dB
                cx = C @ x
                w_next = np.einsum("it,it->t", cx, cx)
                time_int += 0.5 * h * (w_cur + w_next)
                w_cur = w_next
            samples = (ito + 0.5 * time_int) / config.T

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
    ts = tilted_system(spec, lam)
    h = _resolve_dt(spec, config)
    n_steps = max(1, int(round(config.T / h)))
    h = config.T / n_steps
    d = spec.dim
    N = spec.A - spec.A.T
    vec = np.asarray(x, dtype=float).reshape(-1)
    if vec.shape != (d,):
        raise ConfigError(f"start has shape {vec.shape}, expected ({d},)")
    gens = _trajectory_generators(config.seed, config.n_traj)
    E, root = _exact_step_matrices(ts, h)
    y = np.repeat(vec[:, None], config.n_traj, axis=1)
    ny = N @ y
    w_cur = np.einsum("it,it->t", ny, ny)
    acc = np.zeros(config.n_traj)
    for z in _noise(gens, n_steps, d):
        y = E @ y
        y += root @ z
        ny = N @ y
        w_next = np.einsum("it,it->t", ny, ny)
        acc += 0.5 * h * (w_cur + w_next)
        w_cur = w_next
    acc.setflags(write=False)
    return acc


def empirical_mgf(ensemble: EprEnsemble, lam: float) -> MgfEstimate:
    """(1/T) log mean exp(lam T e_p) with a leave-one-out jackknife error.

    Evaluated through log-sum-exp; a single dominating sample drives the
    jackknife spread to infinity, which is the honest diagnostic near the
    domain boundary.
    """
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
