"""Command-line interface: config ingestion, subcommands, result emission.

Outputs are CSV or JSON with a config fingerprint embedded in every file,
floats serialized in shortest-round-trip form, and `inf`/`-inf`/`nan`
written literally so extended-real results survive the trip to disk.

Exit codes: 0 success, 1 domain/validation failure (an invalid system is
refused before any work), 2 config error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .chaos import MgfQuery, conditional_mgf, cramer_finite_T
from .cramer import cramer_curve, cramer_domain, rate
from .errors import ConfigError, DomainError, EprLdpError, ReversibilityError
from .model import (
    SystemSpec,
    check_integer,
    magnetic_example,
    mean_epr,
    spectral_decompose,
    validate_system,
)
from .montecarlo import SimConfig, empirical_mgf, simulate_epr
from .spectral import kernel_spectrum, nystrom_spectrum
from .verify import run_verification

__all__ = ["RunConfig", "load_config", "main"]

OUTDIR_ENV = "EPR_LDP_OUTDIR"


# ---------------------------------------------------------------------------
# value formatting


def format_value(value) -> str:
    """CSV cell formatting: shortest-round-trip floats, literal inf/nan,
    lowercase booleans."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    f = float(value)
    if math.isnan(f):
        return "nan"
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    return repr(f)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f) or math.isinf(f):
            return format_value(f)
        return f
    return obj


def _write_csv(path: str, fingerprint: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# fingerprint={fingerprint}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _rows_to_json(header: str, rows) -> list:
    names = header.split(",")
    return [dict(zip(names, [_jsonable(v) for v in row])) for row in rows]


# ---------------------------------------------------------------------------
# configuration


@dataclasses.dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    count: int

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


def _number(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


def _section(data: dict, name: str) -> Optional[dict]:
    value = data.get(name)
    if value is not None and not isinstance(value, dict):
        raise ConfigError(f"{name} section must be an object")
    return value


def _grid_from(d: Optional[dict], what: str) -> Optional[GridSpec]:
    if d is None:
        return None
    if not isinstance(d, dict) or not {"min", "max", "count"} <= d.keys():
        raise ConfigError(f"{what} must provide numeric min/max/count")
    g = GridSpec(lo=_number(d["min"], f"{what}.min"), hi=_number(d["max"], f"{what}.max"),
                 count=check_integer(f"{what}.count", d["count"], ConfigError))
    if g.count < 1:
        raise ConfigError(f"{what}.count must be >= 1")
    return g


@dataclasses.dataclass(frozen=True, eq=False)
class RunConfig:
    """Resolved run configuration (defaults applied, overrides folded in)."""

    system: SystemSpec
    horizon: float
    lambda_grid: Optional[GridSpec]
    x_grid: Optional[GridSpec]
    j_max: int
    nystrom_nodes: int
    mc: dict
    mgf: Optional[dict]
    out_format: str
    out_path: Optional[str]
    resolved: dict

    def fingerprint(self) -> str:
        blob = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _build_system(section) -> SystemSpec:
    if not isinstance(section, dict):
        raise ConfigError("config requires a 'system' object")
    if "example" in section:
        name = section["example"]
        if name != "magnetic":
            raise ConfigError(f"unknown example {name!r}")
        if "theta" not in section:
            raise ConfigError("magnetic example requires 'theta'")
        extended = section.get("extended", False)
        if not isinstance(extended, bool):
            raise ConfigError(f"system.extended must be true or false, got {extended!r}")
        return magnetic_example(float(section["theta"]), extended=extended)
    if "matrix_A" not in section:
        raise ConfigError("system needs either 'matrix_A' or 'example'")
    A = np.asarray(section["matrix_A"], dtype=float)
    Q = section.get("matrix_Q")
    return SystemSpec(A, None if Q is None else np.asarray(Q, dtype=float))


def _mgf_from(section: Optional[dict]) -> Optional[dict]:
    """The mgf section with ``x0`` as a tuple of floats and ``lambda`` and
    ``theta`` as floats, each only where given."""
    if section is None:
        return None
    out = {key: _number(section[key], f"mgf.{key}")
           for key in ("lambda", "theta") if section.get(key) is not None}
    if "x0" in section:
        try:
            out["x0"] = tuple(float(v) for v in section["x0"])
        except (TypeError, ValueError):
            raise ConfigError(f"mgf.x0 must be a list of numbers, got {section['x0']!r}") from None
    return out


def _resolve(raw: dict, overrides: Optional[dict] = None) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    overrides = overrides or {}
    data = dict(raw)
    mc_raw = dict(_section(data, "mc") or {})
    if overrides.get("seed") is not None:
        mc_raw["seed"] = int(overrides["seed"])
    spectral_raw = _section(data, "spectral") or {}
    output_raw = _section(data, "output") or {}
    out_format = output_raw.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError("output.format must be 'csv' or 'json'")
    out_path = output_raw.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError(f"output.path must be a string, got {out_path!r}")
    try:
        system = _build_system(data.get("system"))
    except EprLdpError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad system section: {exc}") from exc
    horizon = _number(data.get("horizon", 1.0), "horizon")
    if not horizon > 0:
        raise ConfigError("horizon must be positive")
    j_max = check_integer("spectral.j_max", spectral_raw.get("j_max", 200), ConfigError)
    n_nodes = check_integer("spectral.nystrom_nodes",
                            spectral_raw.get("nystrom_nodes", 400), ConfigError)
    if j_max < 1 or n_nodes < 8:
        raise ConfigError("spectral.j_max must be >= 1 and nystrom_nodes >= 8")
    mgf_raw = _section(data, "mgf")
    resolved = {
        "system": {"matrix_A": system.A.tolist(), "matrix_Q": system.Q.tolist()},
        "horizon": horizon,
        "lambda_grid": data.get("lambda_grid"),
        "x_grid": data.get("x_grid"),
        "spectral": {"j_max": j_max, "nystrom_nodes": n_nodes},
        "mc": mc_raw,
        "mgf": mgf_raw,
        "output": {"format": out_format},
    }
    return RunConfig(
        system=system,
        horizon=horizon,
        lambda_grid=_grid_from(data.get("lambda_grid"), "lambda_grid"),
        x_grid=_grid_from(data.get("x_grid"), "x_grid"),
        j_max=j_max,
        nystrom_nodes=n_nodes,
        mc=mc_raw,
        mgf=_mgf_from(mgf_raw),
        out_format=out_format,
        out_path=out_path,
        resolved=resolved,
    )


def load_config(path: str, overrides: Optional[dict] = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return _resolve(raw, overrides)


def _sim_config(cfg: RunConfig) -> SimConfig:
    known = {"dt", "n_traj", "seed", "scheme", "start"}
    extra = set(cfg.mc) - known
    if extra:
        raise ConfigError(f"unknown mc fields: {sorted(extra)}")
    try:
        return SimConfig(T=cfg.horizon, **cfg.mc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad mc section: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _out_file(cfg: RunConfig, outdir: str, name: str) -> str:
    base = cfg.out_path if cfg.out_path else outdir
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


def cmd_validate(cfg: RunConfig, outdir: str) -> int:
    report = validate_system(cfg.system)
    payload = {"fingerprint": cfg.fingerprint(), **report.as_dict()}
    _write_json(_out_file(cfg, outdir, "validate.json"), payload)
    print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))
    return 0 if report.passed else 1


def cmd_curves(cfg: RunConfig, outdir: str) -> int:
    try:
        sp = spectral_decompose(cfg.system)
    except ReversibilityError:
        raise ReversibilityError(
            "the drift is reversible (A is symmetric), so the entropy "
            "production rate is identically 0 and has no large-deviation curves"
        ) from None
    dom = cramer_domain(sp)
    if cfg.lambda_grid is not None:
        lam_grid = cfg.lambda_grid.points()
    else:
        lam_grid = np.linspace(dom.a, dom.b, 101)
    curve = cramer_curve(sp, lam_grid, with_derivative=True)
    lam_rows = [
        (l, v, dv, bool(np.isfinite(v)))
        for l, v, dv in zip(curve.lambda_grid, curve.values, curve.derivative)
    ]
    if cfg.x_grid is not None:
        x_grid = cfg.x_grid.points()
    else:
        xm = 3.0 * mean_epr(sp)
        x_grid = np.linspace(-xm, xm, 121)
    rate_rows = []
    for x in x_grid:
        pt = rate(float(x), sp)
        rate_rows.append((pt.x, pt.I, pt.ell0, pt.residual))
    fp = cfg.fingerprint()
    lam_header = "lambda,Lambda,Lambda_prime,in_domain"
    rate_header = "x,I,ell0,residual"
    if cfg.out_format == "csv":
        _write_csv(_out_file(cfg, outdir, "curves_lambda.csv"), fp, lam_header, lam_rows)
        _write_csv(_out_file(cfg, outdir, "curves_rate.csv"), fp, rate_header, rate_rows)
    else:
        _write_json(
            _out_file(cfg, outdir, "curves.json"),
            {"fingerprint": fp,
             "lambda_curve": _rows_to_json(lam_header, lam_rows),
             "rate_curve": _rows_to_json(rate_header, rate_rows)},
        )
    print(f"curves: {len(lam_rows)} lambda rows, {len(rate_rows)} x rows "
          f"(domain [{dom.a!r}, {dom.b!r}])")
    return 0


def cmd_spectrum(cfg: RunConfig, outdir: str) -> int:
    # a reversible drift has a zero kernel: no analytic rows, gamma_max 0
    sp = spectral_decompose(cfg.system, allow_reversible=True)
    ks = kernel_spectrum(sp, cfg.horizon, cfg.j_max)
    rows = ks.records()[["k", "j", "omega", "gamma"]].tolist()
    nys = nystrom_spectrum(cfg.system, lam=0.0, T=cfg.horizon,
                           n_nodes=cfg.nystrom_nodes)
    top = min(20, len(nys))
    nys_rows = [(i + 1, nys[i]) for i in range(top)]
    fp = cfg.fingerprint()
    header = "k,j,omega,gamma"
    nys_header = "rank,gamma_nystrom"
    if cfg.out_format == "csv":
        _write_csv(_out_file(cfg, outdir, "spectrum.csv"), fp, header, rows)
        _write_csv(_out_file(cfg, outdir, "spectrum_nystrom.csv"), fp,
                   nys_header, nys_rows)
    else:
        _write_json(
            _out_file(cfg, outdir, "spectrum.json"),
            {"fingerprint": fp, "analytic": _rows_to_json(header, rows),
             "nystrom": _rows_to_json(nys_header, nys_rows),
             "gamma_max": ks.gamma_max},
        )
    print(f"spectrum: {len(rows)} analytic entries, gamma_max={ks.gamma_max!r}, "
          f"{top} Nystrom values")
    return 0


def cmd_mgf(cfg: RunConfig, outdir: str) -> int:
    if cfg.mgf is None:
        raise ConfigError("mgf command requires an 'mgf' config section")
    section = cfg.mgf
    if "x0" not in section:
        raise ConfigError("mgf section requires 'x0'")
    lam = section.get("lambda", 0.0)
    theta = section.get("theta", 0.5 * lam * (1.0 + lam))
    value = conditional_mgf(MgfQuery(x=section["x0"], theta=theta, T=cfg.horizon), cfg.system)
    lam_T = cramer_finite_T(lam, cfg.system, cfg.horizon)
    gamma_max = kernel_spectrum(spectral_decompose(cfg.system, allow_reversible=True),
                                cfg.horizon, 1).gamma_max
    fp = cfg.fingerprint()
    header = "theta,lambda,T,conditional_mgf,cramer_finite_T"
    row = (theta, lam, cfg.horizon, value, lam_T)
    if cfg.out_format == "csv":
        _write_csv(_out_file(cfg, outdir, "mgf.csv"), fp, header, [row])
    else:
        _write_json(
            _out_file(cfg, outdir, "mgf.json"),
            {"fingerprint": fp, "gamma_max": gamma_max,
             "rows": _rows_to_json(header, [row])},
        )
    print(f"mgf: theta={theta!r} -> {format_value(value)}, "
          f"Lambda_T({lam!r})={format_value(lam_T)}")
    return 0


def cmd_simulate(cfg: RunConfig, outdir: str) -> int:
    sim = _sim_config(cfg)
    ens = simulate_epr(cfg.system, sim)
    fp = cfg.fingerprint()
    rows = [(i, s) for i, s in enumerate(ens.samples)]
    stats = {
        "fingerprint": fp,
        "config": ens.config,
        "n": int(ens.samples.size),
        "T": ens.T,
        "mean": float(np.mean(ens.samples)),
        "stddev": float(np.std(ens.samples, ddof=1)) if ens.samples.size > 1 else 0.0,
        "metadata": ens.metadata,
    }
    if cfg.mgf is not None and "lambda" in cfg.mgf:
        lam = cfg.mgf["lambda"]
        est = empirical_mgf(ens, lam)
        stats["empirical_mgf"] = {"lambda": lam, "value": est.value,
                                  "stderr": est.stderr}
    if cfg.out_format == "csv":
        _write_csv(_out_file(cfg, outdir, "simulate_samples.csv"), fp,
                   "trajectory,e_p", rows)
        _write_json(_out_file(cfg, outdir, "simulate_stats.json"), stats)
    else:
        stats["samples"] = ens.samples
        _write_json(_out_file(cfg, outdir, "simulate.json"), stats)
    print(f"simulate: n={stats['n']} mean={stats['mean']!r} "
          f"stddev={stats['stddev']!r}")
    return 0


def cmd_verify(cfg: Optional[RunConfig], outdir: str) -> int:
    report = run_verification()
    path = os.path.join(
        cfg.out_path if cfg is not None and cfg.out_path else outdir,
        "verify.json",
    )
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if cfg is not None:
        report = {"fingerprint": cfg.fingerprint(), **report}
    _write_json(path, report)
    for c in report["checks"]:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']} "
              f"({c['seconds']}s)")
    print("all passed" if report["all_passed"] else "FAILURES PRESENT")
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="epr-ldp",
        description="Large-deviation analytics for the entropy production "
        "rate of linear diffusions with normal drift.",
    )
    p.add_argument("--config", help="path to a JSON run configuration")
    p.add_argument("--out", help="output directory (default: "
                   f"${OUTDIR_ENV} or the working directory)")
    p.add_argument("--seed", type=int, help="override mc.seed")
    p.add_argument(
        "command",
        choices=["validate", "curves", "spectrum", "mgf", "simulate", "verify"],
    )
    return p


_COMMANDS = {
    "validate": cmd_validate,
    "curves": cmd_curves,
    "spectrum": cmd_spectrum,
    "mgf": cmd_mgf,
    "simulate": cmd_simulate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    outdir = args.out or os.environ.get(OUTDIR_ENV) or os.getcwd()
    try:
        if args.command == "verify":
            cfg = None
            if args.config is not None:
                cfg = load_config(args.config, {"seed": args.seed})
            return cmd_verify(cfg, outdir)
        if args.config is None:
            raise ConfigError(f"command {args.command!r} requires --config")
        cfg = load_config(args.config, {"seed": args.seed})
        if args.command != "validate":
            failing = [c.name for c in validate_system(cfg.system).failing()
                       if c.severity == "error"]
            if failing:
                raise DomainError(f"system fails validation: {', '.join(failing)}")
        return _COMMANDS[args.command](cfg, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except EprLdpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
