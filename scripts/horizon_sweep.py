#!/usr/bin/env python3
"""Sweep the finite-horizon cumulant toward its long-time limit.

For each requested tilt, prints Lambda_T against the limiting Lambda over a
ladder of horizons, showing the O(1/T) approach and (for tilts past the
top-eigenvalue threshold) the onset of divergence.

    python3 scripts/horizon_sweep.py --theta 0.7854 --tilts 0.05 0.1 0.3
"""

import argparse
import csv
import math
import sys

from epr_ldp.chaos import cramer_finite_T
from epr_ldp.cramer import cramer, cramer_domain
from epr_ldp.model import magnetic_example, spectral_decompose


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--theta", type=float, default=math.pi / 4,
                   help="magnetic angle (default pi/4)")
    p.add_argument("--tilts", type=float, nargs="+", default=[0.05, 0.1, 0.3])
    p.add_argument("--horizons", type=float, nargs="+",
                   default=[2.0, 5.0, 10.0, 20.0, 40.0, 400.0, 4000.0])
    p.add_argument("--out", help="optional CSV path")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = magnetic_example(args.theta)
    sp = spectral_decompose(spec)
    dom = cramer_domain(sp)
    print(f"magnetic theta={args.theta:g}, finiteness interval "
          f"[{dom.a:.6f}, {dom.b:.6f}]")

    rows = []
    for lam in args.tilts:
        limit = cramer(lam, sp)
        print(f"\ntilt lambda={lam:g}  (limit {limit!r})")
        print(f"{'T':>8} {'Lambda_T':>16} {'error':>12} {'T*error':>10}")
        for T in args.horizons:
            val = cramer_finite_T(lam, spec, T)
            err = abs(val - limit) if math.isfinite(val) else math.inf
            scaled = T * err if math.isfinite(err) else math.inf
            print(f"{T:8g} {val:16.10f} {err:12.2e} {scaled:10.4f}"
                  if math.isfinite(val) else f"{T:8g} {'inf':>16} {'':>12} {'':>10}")
            rows.append((lam, T, val, limit))

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["lambda", "T", "cramer_finite_T", "limit"])
            w.writerows(rows)
        print(f"\nwrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
