"""mc_wide: wide Monte Carlo ensembles, the shapes of acceptance criteria
05, 08 and 10 and of ``verify``.

Why: Monte Carlo is most of the Tier-1 and ``verify`` time.  Generator
construction, per-trajectory draws and the vectorised step loop dominate,
so trajectory parallelism and draw batching act here.  A round simulates
one magnetic system three ways (exact_ou and euler_maruyama from a
stationary start, the tilted Z integral from a fixed start), runs
empirical_mgf and tail_estimate on each ensemble, and repeats the exact_ou
ensemble to require bit-identical samples.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from common import Op, check
from epr_ldp import (
    EprEnsemble,
    MgfQuery,
    SimConfig,
    conditional_mgf,
    cramer_domain,
    cramer_finite_T,
    empirical_mgf,
    kernel_spectrum,
    magnetic_example,
    mean_epr,
    simulate_epr,
    simulate_z_integral,
    spectral_decompose,
    tail_estimate,
)

N_TRAJ = 10_000
T_EPR, DT_EPR = 2.0, 2e-3  # 1000 steps
T_Z, DT_Z = 1.0, 1e-3  # 1000 steps
DIM = 2
# Wide enough that correct code fails with negligible probability: the
# O(dt) scheme bias stays below one standard error at these shapes.
Z_BOUND = 6.0


def _steps(T: float, dt: float) -> int:
    return int(round(T / dt))


# One ensemble's normal deviates; they fit in one of the library's
# 2e7-double drawing windows.
NOISE_BYTES = N_TRAJ * _steps(T_EPR, DT_EPR) * DIM * 8


def _check_tail(tr, ens) -> None:
    s = ens.samples
    x = float(np.mean(s) + np.std(s))
    tail = tr.call("montecarlo.tail_estimate", tail_estimate, ens, x)
    p = np.count_nonzero(s >= x) / s.size
    check(tail.side == "upper" and tail.probability == p and not tail.censored,
          f"tail estimate {tail} disagrees with the sample count {p}")
    check(math.isclose(tail.log_rate, -math.log(p) / ens.T, rel_tol=1e-12),
          "tail log-rate is not -log(p)/T")


class Workload:
    work_unit = "trajectory-steps"
    child_rss = False

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.reference = None
        self.fingerprints: list = []

    def ops(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        spec = magnetic_example(rng.uniform(math.pi / 8, math.pi / 3))
        seeds = [int(s) for s in rng.integers(0, 2**63, size=3)]
        base = {"spec": spec, "lam_frac": rng.uniform(0.2, 0.4)}
        return [
            Op(f"r{r}.exact_ou", "epr", {**base, "scheme": "exact_ou", "seed": seeds[0]}),
            Op(f"r{r}.euler_maruyama", "epr",
               {**base, "scheme": "euler_maruyama", "seed": seeds[1]}),
            Op(f"r{r}.z_integral", "z", {**base, "seed": seeds[2],
                                         "x0": rng.standard_normal(DIM),
                                         "lam": rng.uniform(0.0, 0.2)}),
            Op(f"r{r}.exact_ou.repeat", "epr",
               {**base, "scheme": "exact_ou", "seed": seeds[0], "repeat": True}),
        ]

    def run(self, op: Op, tr, ctx) -> int:
        return (self._epr if op.kind == "epr" else self._z)(op, tr)

    def _epr(self, op: Op, tr) -> int:
        a = op.args
        spec = a["spec"]
        sp = tr.call("model.spectral_decompose", spectral_decompose, spec)
        mbar = tr.call("model.mean_epr", mean_epr, sp)
        config = SimConfig(T=T_EPR, dt=DT_EPR, n_traj=N_TRAJ, seed=a["seed"],
                           scheme=a["scheme"])
        work = N_TRAJ * _steps(T_EPR, DT_EPR)
        ens = tr.call_work(f"montecarlo.{a['scheme']}", work, simulate_epr, spec, config)
        s = ens.samples
        self.fingerprints.append((op.id, hashlib.sha256(s.tobytes()).hexdigest()))
        if a.get("repeat"):
            check(np.array_equal(s, self.reference), "repeated ensemble differs")
        elif a["scheme"] == "exact_ou":
            self.reference = s

        z = (float(np.mean(s)) - mbar) / (float(np.std(s, ddof=1)) / math.sqrt(s.size))
        check(abs(z) <= Z_BOUND, f"ensemble mean off the mean EPR by z={z:.2f}")
        dom = tr.call("cramer.cramer_domain", cramer_domain, sp)
        lam = a["lam_frac"] * dom.b
        est = tr.call("montecarlo.empirical_mgf", empirical_mgf, ens, lam)
        lam_T = tr.call("chaos.cramer_finite_T", cramer_finite_T, lam, spec, T_EPR)
        z = (est.value - lam_T) / est.stderr
        check(abs(z) <= Z_BOUND, f"empirical cumulant off Lambda_T by z={z:.2f}")
        _check_tail(tr, ens)
        return work

    def _z(self, op: Op, tr) -> int:
        a = op.args
        spec, x0, lam = a["spec"], a["x0"], a["lam"]
        config = SimConfig(T=T_Z, dt=DT_Z, n_traj=N_TRAJ, seed=a["seed"])
        work = N_TRAJ * _steps(T_Z, DT_Z)
        samples = tr.call_work("montecarlo.z_integral", work, simulate_z_integral,
                               spec, lam, x0, config)
        self.fingerprints.append((op.id, hashlib.sha256(samples.tobytes()).hexdigest()))
        ens = EprEnsemble(samples=samples, T=T_Z, config="z_integral")
        sp = tr.call("model.spectral_decompose", spectral_decompose, spec)
        gamma1 = tr.call("spectral.kernel_spectrum", kernel_spectrum, sp, T_Z, 1).gamma_max
        for theta in (-0.5, 0.2 / gamma1):
            pred = tr.call("chaos.conditional_mgf", conditional_mgf,
                           MgfQuery(x=x0, theta=theta, lam=lam, T=T_Z), spec)
            # With T = 1, empirical_mgf is log mean exp(theta Z).
            est = tr.call("montecarlo.empirical_mgf", empirical_mgf, ens, theta)
            z = (est.value - math.log(pred)) / est.stderr
            check(abs(z) <= Z_BOUND, f"MGF vs sampling z={z:.2f} at theta={theta:.3f}")
        _check_tail(tr, ens)
        return work

    def record(self) -> dict:
        return {"ensemble_sha256": self.fingerprints,
                "noise_bytes_per_ensemble": NOISE_BYTES}

    def probe(self, tr, rounds: int = 3) -> None:
        """n_steps = 1 ensembles at N_TRAJ: generator construction and starts."""
        spec = magnetic_example(math.pi / 4)
        for i in range(rounds):
            config = SimConfig(T=DT_EPR, dt=DT_EPR, n_traj=N_TRAJ, seed=self.seed + i)
            tr.call_work("montecarlo.per_traj_setup", N_TRAJ, simulate_epr, spec, config)
