"""ldp_curves: one op analyses one system's long-run LDP end to end.

Why: the paper's headline long-run objects (Lambda, I, both fluctuation
symmetries, the Legendre oracle) run almost entirely in cramer's scalar root
solve; spectral, chaos and montecarlo stay idle.  A round spans magnetic
angles (one near +-pi/2, where the domain is narrow), the extended 3-D case
and random_system draws for d = 2..8 in all three q_styles, so the channel
count varies.
"""

from __future__ import annotations

import math

import numpy as np

from common import Op, check
from epr_ldp import (
    cramer_curve,
    cramer_domain,
    legendre_oracle,
    magnetic_example,
    mean_epr,
    rate,
    spectral_decompose,
    symmetry_residuals,
    validate_system,
)
from epr_ldp.testing import random_system

N_LAMBDA = 101
N_X = 31  # odd, so the symmetric x grid contains 0
SYMMETRY_X_STRIDE = 5  # every fifth x of the grid: 7 symmetric levels
LEGENDRE_X = (3, 9, 15, 21, 27)
STYLES = ("identity", "scalar", "poly")

# Tolerances as in verify.py and tests/test_acceptance.py.
TOL_LAMBDA_SYMMETRY = 1e-12
TOL_RATE_SYMMETRY = 1e-9
TOL_LEGENDRE_REL = 1e-6


def _angle(rng) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.45))


class Workload:
    work_unit = "Lambda and I curve points"
    child_rss = False

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed

    def ops(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        edge = float(rng.choice((-1.0, 1.0))) * (math.pi / 2 - rng.uniform(0.01, 0.05))
        systems = [
            ("magnetic", magnetic_example(_angle(rng))),
            ("magnetic", magnetic_example(_angle(rng))),
            ("magnetic_edge", magnetic_example(edge)),
            ("magnetic_3d", magnetic_example(_angle(rng), extended=True)),
        ]
        for d in range(2, 9):
            for style in STYLES:
                systems.append((f"d{d}_{style}", random_system(rng, d, style)))
        return [Op(f"r{r}.{i}.{label}", "system", {"spec": spec})
                for i, (label, spec) in enumerate(systems)]

    def run(self, op: Op, tr, ctx) -> int:
        spec = op.args["spec"]
        report = tr.call("model.validate_system", validate_system, spec)
        check(report.passed, f"valid system rejected: {[c.name for c in report.failing()]}")
        sp = tr.call("model.spectral_decompose", spectral_decompose, spec)
        check(sp.dim == spec.dim, "channel count differs from the dimension")

        dom = tr.call("cramer.cramer_domain", cramer_domain, sp)
        check(abs(dom.a + dom.b + 1.0) <= 1e-12, f"a + b = {dom.a + dom.b} != -1")
        lambdas = np.linspace(dom.a, dom.b, N_LAMBDA)
        curve = tr.call("cramer.cramer_curve", cramer_curve, sp, lambdas,
                        with_derivative=True)
        check(np.all(np.isfinite(curve.values)), "Lambda not finite on [a, b]")
        slope = curve.derivative
        check(slope[0] == -math.inf and slope[-1] == math.inf
              and np.all(np.diff(slope[1:-1]) > 0.0),
              "Lambda' not increasing from -inf to +inf across [a, b]")

        mbar = tr.call("model.mean_epr", mean_epr, sp)
        xs = np.linspace(-3.0 * mbar, 3.0 * mbar, N_X)
        rates = np.array([tr.call("cramer.rate", rate, float(x), sp).I for x in xs])
        check(np.all(rates >= 0.0), "negative rate")
        check(np.all(np.diff(rates, 2) >= -1e-9), "rate not convex on the grid")

        res_lambda, res_rate = tr.call(
            "cramer.symmetry_residuals", symmetry_residuals,
            sp, lambdas, xs[::SYMMETRY_X_STRIDE],
        )
        check(res_lambda <= TOL_LAMBDA_SYMMETRY, f"Lambda symmetry residual {res_lambda:.2e}")
        check(res_rate <= TOL_RATE_SYMMETRY, f"rate symmetry residual {res_rate:.2e}")

        for i in LEGENDRE_X:
            searched = tr.call("cramer.legendre_oracle", legendre_oracle, float(xs[i]), sp)
            rel = abs(rates[i] - searched) / (1.0 + rates[i])
            check(rel <= TOL_LEGENDRE_REL, f"Legendre mismatch {rel:.2e} at x={xs[i]!r}")
        return N_LAMBDA + N_X
