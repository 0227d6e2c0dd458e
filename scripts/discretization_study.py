#!/usr/bin/env python3
"""Measure the Euler-Maruyama weak bias of the EPR estimate against dt.

Runs matched-seed ensembles across a step ladder, with the exact transition
scheme at the finest step as reference, and reports the observed bias decay
(first order: halving dt should halve the bias).

    python3 scripts/discretization_study.py --n-traj 20000 --horizon 20
"""

import argparse
import math
import sys

import numpy as np

from epr_ldp.model import magnetic_example, mean_epr, spectral_decompose
from epr_ldp.montecarlo import SimConfig, simulate_epr


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--theta", type=float, default=math.pi / 4)
    p.add_argument("--horizon", type=float, default=20.0)
    p.add_argument("--n-traj", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=77)
    p.add_argument("--steps", type=float, nargs="+",
                   default=[0.16, 0.08, 0.04, 0.02])
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = magnetic_example(args.theta)
    target = mean_epr(spectral_decompose(spec))
    print(f"target long-run mean: {target:.6f}")

    exact = simulate_epr(
        spec,
        SimConfig(T=args.horizon, dt=min(args.steps) / 4.0,
                  n_traj=args.n_traj, seed=args.seed),
    )
    se = exact.samples.std(ddof=1) / math.sqrt(args.n_traj)
    print(f"exact-scheme reference mean: {exact.samples.mean():.6f} "
          f"(se {se:.2e})\n")

    print(f"{'dt':>8} {'mean':>12} {'bias':>12} {'bias/dt':>10}")
    biases = []
    for dt in args.steps:
        ens = simulate_epr(
            spec,
            SimConfig(T=args.horizon, dt=dt, n_traj=args.n_traj,
                      seed=args.seed, scheme="euler_maruyama"),
        )
        bias = ens.samples.mean() - target
        biases.append(bias)
        print(f"{dt:8g} {ens.samples.mean():12.6f} {bias:+12.6f} "
              f"{bias / dt:10.4f}")

    ratios = [b1 / b2 for b1, b2 in zip(biases, biases[1:])]
    print(f"\nconsecutive bias ratios (2.0 = clean first order): "
          f"{np.round(ratios, 3).tolist()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
