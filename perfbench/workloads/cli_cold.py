"""cli_cold: CLI subcommands, each from a cold interpreter.

Why: interpreter start and import cost dominate here.  ``simulate`` is the
narrow long-horizon LLN ensemble (64 trajectories x 5e4 steps), where
per-step overhead rather than trajectory count sets the time, so a choice of
Monte Carlo path by n_traj has a workload on each side.  ``verify`` is left
out: it would add 20 s per run and re-measure mc_wide's shapes.

A round runs validate, curves, spectrum, mgf and simulate on a magnetic
system and a raw-matrix random system, curves on a system whose Q does not
commute with A (the correct outcome is exit 1), and simulate again to
require byte-identical output files.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

from common import ExitStatus, Op, check, run_child
from epr_ldp import (
    MgfQuery,
    conditional_mgf,
    cramer,
    cramer_domain,
    cramer_finite_T,
    kernel_spectrum,
    magnetic_example,
    mean_epr,
    rate,
    spectral_decompose,
)
from epr_ldp.testing import random_system

STYLES = ("identity", "scalar", "poly")
SIM_T, SIM_DT, SIM_TRAJ = 100.0, 2e-3, 64  # 5e4 steps
Z_BOUND = 6.0
TOL_NYSTROM_REL = 1e-3
TOL_EXACT_REL = 1e-12


def _rows(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [{k: float(v) if v not in ("true", "false") else v == "true"
             for k, v in row.items()} for row in csv.DictReader(lines)]


def _close(got: float, want: float, what: str) -> None:
    check(abs(got - want) <= TOL_EXACT_REL * max(1.0, abs(want)),
          f"{what}: file has {got!r}, library gives {want!r}")


def _accepted_noncommuting(exc: BaseException) -> bool:
    return isinstance(exc, ExitStatus) and exc.got == 0


class Workload:
    work_unit = "commands"
    child_rss = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.dir = workdir / "cli"

    def ops(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, r])
        rdir = self.dir / f"r{r}"
        shutil.rmtree(rdir, ignore_errors=True)
        rdir.mkdir(parents=True)

        theta = rng.uniform(math.pi / 8, math.pi / 3)
        magnetic = {"example": "magnetic", "theta": theta}
        raw = random_system(rng, int(rng.integers(3, 5)), STYLES[int(rng.integers(3))])
        raw_sp = spectral_decompose(raw)
        nc_A = random_system(rng, 3).A
        B = rng.standard_normal((3, 3))
        specs = {"magnetic": magnetic_example(theta), "raw": raw}
        specs["simulate"] = specs["magnetic"]
        configs = {
            "magnetic": {"system": magnetic, "horizon": 1.0},
            "raw": {
                "system": {"matrix_A": raw.A.tolist(), "matrix_Q": raw.Q.tolist()},
                "horizon": 1.0,
                "mgf": {"x0": rng.standard_normal(raw.dim).tolist(),
                        "lambda": 0.3 * cramer_domain(raw_sp).b},
            },
            "simulate": {
                "system": magnetic, "horizon": SIM_T,
                "mc": {"dt": SIM_DT, "n_traj": SIM_TRAJ, "scheme": "exact_ou",
                       "seed": int(rng.integers(2**31))},
            },
            "noncommuting": {"system": {"matrix_A": nc_A.tolist(),
                                        "matrix_Q": (B @ B.T + np.eye(3)).tolist()}},
        }
        for name, config in configs.items():
            (rdir / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")

        plan = [("validate", "raw"), ("curves", "magnetic"), ("spectrum", "magnetic"),
                ("mgf", "raw"), ("simulate", "simulate")]
        ops = [Op(f"r{r}.{cmd}.{cfg}", cmd,
                  {"dir": rdir, "config": cfg, "spec": specs[cfg], "out": f"{i}_{cmd}"})
               for i, (cmd, cfg) in enumerate(plan)]
        ops.append(Op(f"r{r}.curves.noncommuting", "curves",
                      {"dir": rdir, "config": "noncommuting", "out": "5_curves",
                       "expect": 1}, _accepted_noncommuting))
        ops.append(Op(f"r{r}.simulate.repeat", "simulate",
                      {"dir": rdir, "config": "simulate", "spec": specs["simulate"],
                       "out": "6_simulate", "same_as": "4_simulate"}))
        return ops

    def run(self, op: Op, tr, ctx) -> int:
        a = op.args
        rdir, cmd = a["dir"], op.kind
        out = rdir / a["out"]
        argv = [sys.executable, "-m", "epr_ldp.cli",
                "--config", str(rdir / f"{a['config']}.json"), "--out", str(out), cmd]
        rss = tr.call(f"cli.{cmd}", run_child, argv, a.get("expect", 0),
                      rdir / f"{a['out']}.stderr")
        ctx.child_rss_mb = max(ctx.child_rss_mb, rss)
        with ctx.untimed():
            if "expect" not in a:
                config = json.loads((rdir / f"{a['config']}.json").read_text(encoding="utf-8"))
                sp = tr.call("model.spectral_decompose", spectral_decompose, a["spec"])
                getattr(self, f"_check_{cmd}")(out, config, a["spec"], sp, tr)
            if "same_as" in a:
                first = rdir / a["same_as"]
                names = sorted(p.name for p in first.iterdir())
                check(names == sorted(p.name for p in out.iterdir()), "output files differ")
                for name in names:
                    check((first / name).read_bytes() == (out / name).read_bytes(),
                          f"{name} not byte-identical on a re-run")
        return 1

    def _check_validate(self, out, config, spec, sp, tr) -> None:
        report = json.loads((out / "validate.json").read_text(encoding="utf-8"))
        check(report["passed"] and len(report["fingerprint"]) == 16,
              "validate.json does not report a passing system")

    def _check_curves(self, out, config, spec, sp, tr) -> None:
        lam_rows = _rows(out / "curves_lambda.csv")
        rate_rows = _rows(out / "curves_rate.csv")
        check(len(lam_rows) == 101 and len(rate_rows) == 121, "wrong curve row counts")
        check(all(row["in_domain"] for row in lam_rows), "grid point outside [a, b]")
        for row in lam_rows[::25]:
            _close(row["Lambda"], tr.call("cramer.cramer", cramer, row["lambda"], sp), "Lambda")
        for row in rate_rows[::30]:
            _close(row["I"], tr.call("cramer.rate", rate, row["x"], sp).I, "I")

    def _check_spectrum(self, out, config, spec, sp, tr) -> None:
        analytic = sorted((row["gamma"] for row in _rows(out / "spectrum.csv")), reverse=True)
        ks = tr.call("spectral.kernel_spectrum", kernel_spectrum, sp, config["horizon"])
        _close(analytic[0], ks.gamma_max, "gamma_max")
        nystrom = [row["gamma_nystrom"] for row in _rows(out / "spectrum_nystrom.csv")][:5]
        rel = max(abs(n - g) / g for n, g in zip(nystrom, analytic[:5]))
        check(rel <= TOL_NYSTROM_REL, f"Nystrom top-5 off by {rel:.2e}")

    def _check_mgf(self, out, config, spec, sp, tr) -> None:
        (row,) = _rows(out / "mgf.csv")
        lam, T = config["mgf"]["lambda"], config["horizon"]
        query = MgfQuery(x=config["mgf"]["x0"], theta=row["theta"], lam=lam, T=T)
        _close(row["conditional_mgf"],
               tr.call("chaos.conditional_mgf", conditional_mgf, query, spec), "MGF")
        _close(row["cramer_finite_T"],
               tr.call("chaos.cramer_finite_T", cramer_finite_T, lam, spec, T), "Lambda_T")

    def _check_simulate(self, out, config, spec, sp, tr) -> None:
        stats = json.loads((out / "simulate_stats.json").read_text(encoding="utf-8"))
        check(stats["n"] == SIM_TRAJ, "wrong ensemble size")
        mbar = tr.call("model.mean_epr", mean_epr, sp)
        z = (stats["mean"] - mbar) / (stats["stddev"] / math.sqrt(stats["n"]))
        check(abs(z) <= Z_BOUND, f"long-run mean off the mean EPR by z={z:.2f}")
