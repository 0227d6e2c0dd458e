#!/usr/bin/env python3
"""Convergence of the discretized kernel eigenvalues to the analytic ones.

Sweeps the quadrature node count and reports the relative error of the top
eigenvalues against the closed-form channel values; the kernel's diagonal
kink limits the observed order despite the Gauss rule.

    python3 scripts/spectrum_convergence.py --horizon 1 --nodes 50 100 200 400
"""

import argparse
import math
import sys

import numpy as np

from epr_ldp.model import magnetic_example, spectral_decompose
from epr_ldp.spectral import kernel_spectrum, nystrom_spectrum


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--theta", type=float, default=math.pi / 4)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--lam", type=float, default=0.0, help="tilt (spectrum is tilt-free)")
    p.add_argument("--nodes", type=int, nargs="+", default=[50, 100, 200, 400, 800])
    p.add_argument("--top", type=int, default=6)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = magnetic_example(args.theta)
    sp = spectral_decompose(spec)
    analytic = kernel_spectrum(sp, args.horizon).descending().gamma[: args.top]
    print(f"analytic top-{args.top}: {np.round(analytic, 8).tolist()}\n")

    print(f"{'nodes':>6} {'worst rel err':>14} {'top value':>16}")
    prev = None
    for n in args.nodes:
        discrete = nystrom_spectrum(spec, args.lam, args.horizon, n_nodes=n)
        rel = float(np.max(np.abs(discrete[: args.top] - analytic) / analytic))
        note = "" if prev is None else f"  (x{prev / rel:.1f} better)"
        print(f"{n:6d} {rel:14.2e} {discrete[0]:16.12f}{note}")
        prev = rel
    return 0


if __name__ == "__main__":
    sys.exit(main())
