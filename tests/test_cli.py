"""Command-line driver: config handling, emission formats, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epr_ldp.montecarlo as mc
from epr_ldp.chaos import cramer_finite_T
from epr_ldp.cli import format_value, load_config, main
from epr_ldp.cramer import cramer, cramer_domain
from epr_ldp.errors import ConfigError
from epr_ldp.model import magnetic_example, mean_epr, spectral_decompose

SRC = str(Path(__file__).resolve().parent.parent / "src")

MAGNETIC = {"system": {"example": "magnetic", "theta": math.pi / 4}}
REVERSIBLE = {"system": {"matrix_A": [[-1.0, 0.0], [0.0, -2.0]]}}
# every section a gated subcommand reads, so only the system can fail
RUNNABLE = {"horizon": 2.0, "mc": {"dt": 0.01, "n_traj": 8, "seed": 1},
            "mgf": {"x0": [1.0, 0.0], "lambda": 0.1}}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# fingerprint=")
    fingerprint = lines[0].split("=", 1)[1]
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return fingerprint, header, rows


class TestFormatting:
    def test_floats_round_trip(self):
        for v in (0.1, -2.5e-17, 1.0 / 3.0, 12345.678):
            assert float(format_value(v)) == v

    def test_extended_reals(self):
        assert format_value(math.inf) == "inf"
        assert format_value(-math.inf) == "-inf"
        assert format_value(math.nan) == "nan"

    def test_booleans_and_ints(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(7) == "7"


class TestConfigLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestExitCodes:
    def test_validate_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MAGNETIC)
        assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert len(payload["fingerprint"]) == 16

    def test_validate_failure_is_exit_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"system": {"matrix_A": [[-1.0, 2.0], [0.0, -1.0]]}}
        )
        assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        failing = {c["name"] for c in payload["checks"] if not c["passed"]}
        assert "normality" in failing

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["curves", "spectrum", "mgf", "simulate"])
    @pytest.mark.parametrize(
        "system, failing",
        [({"matrix_A": magnetic_example(math.pi / 4).A.tolist(),
           "matrix_Q": [[1.0, 0.0], [0.0, 2.0]]}, "aq_commute"),
         ({"matrix_A": [[-1.0, 2.0], [0.0, -1.0]]}, "normality"),
         ({"matrix_A": [[-1e-11, 2e-11], [0.0, -1e-11]]}, "normality")]
        + [({"matrix_A": [[-s, s], [-s, -s]]}, "scale")
           for s in (1e150, 1e200, 1e308, 1e-151, 0.0)],
        ids=["non_commuting_q", "non_normal_a", "small_non_normal_a", "huge_a_1e150",
             "huge_a_1e200", "huge_a_1e308", "tiny_a_1e-151", "zero_a"],
    )
    def test_invalid_system_refused(self, tmp_path, capsys, command, system, failing):
        cfg = write_config(tmp_path, dict(RUNNABLE, system=system))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert failing in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [1e150, 1e200, 1e308])
    def test_validate_huge_drift_is_exit_one(self, tmp_path, capsys, s):
        cfg = write_config(tmp_path, {"system": {"matrix_A": [[-s, s], [-s, -s]]}})
        assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in payload["checks"] if not c["passed"]] == ["scale"]

    def test_missing_system_is_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"horizon": 1.0})
        assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_absent_config_is_exit_two(self, tmp_path, capsys):
        missing = str(tmp_path / "none.json")
        assert main(["validate", "--config", missing, "--out", str(tmp_path)]) == 2

    def test_malformed_config_is_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        assert main(["validate", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_bad_grid_is_exit_two(self, tmp_path, capsys):
        payload = dict(MAGNETIC, lambda_grid={"min": 0.0, "max": 1.0, "count": 0})
        cfg = write_config(tmp_path, payload)
        assert main(["curves", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_mc_field_is_exit_two(self, tmp_path, capsys):
        payload = dict(MAGNETIC, mc={"n_traj": 4, "steps": 10})
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "command, patch",
        [("validate", {"horizon": "abc"}),
         ("spectrum", {"spectral": {"j_max": "x"}}),
         ("spectrum", {"spectral": {"j_max": 2.5}}),
         ("spectrum", {"spectral": {"j_max": True}}),
         ("curves", {"x_grid": {"min": -1.0, "max": 1.0, "count": 2.7}}),
         ("mgf", {"mgf": {"x0": ["a", 0]}}),
         ("mgf", {"mgf": {"x0": [1.0, 0.0], "lambda": "q"}}),
         ("validate", {"output": {"path": 123}}),
         ("validate", {"system": {"example": "magnetic", "theta": 0.5, "extended": "false"}}),
         ("simulate", {"mc": {"dt": "abc", "n_traj": 4}})],
        ids=["horizon", "j_max_text", "j_max_fraction", "j_max_bool", "count_fraction",
             "x0", "lambda", "path", "extended", "dt"],
    )
    def test_bad_config_value_is_exit_two(self, tmp_path, command, patch):
        # each once escaped as a raw traceback (exit 1) or was silently
        # truncated or coerced (exit 0)
        cfg = write_config(tmp_path, {**RUNNABLE, **MAGNETIC, **patch})
        proc = subprocess.run(
            [sys.executable, "-m", "epr_ldp.cli", command, "--config", cfg,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 2, proc.stderr
        assert "config error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unwritable_out_is_exit_three(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = write_config(tmp_path, MAGNETIC)
        out = str(blocker / "sub")
        assert main(["curves", "--config", cfg, "--out", out]) == 3


class TestFormatAgreement:
    """Each table a command writes as CSV is a table of its JSON output."""

    CONFIG = dict(MAGNETIC, horizon=1.0, mgf={"x0": [0.3, -0.8], "lambda": 0.1})
    TABLES = {
        "curves": [("curves_lambda.csv", "lambda_curve"), ("curves_rate.csv", "rate_curve")],
        "spectrum": [("spectrum.csv", "analytic"), ("spectrum_nystrom.csv", "nystrom")],
        "mgf": [("mgf.csv", "rows")],
    }
    EXTRA = {"curves": [], "spectrum": ["gamma_max"], "mgf": ["gamma_max"]}

    @pytest.mark.parametrize("command", ["curves", "spectrum", "mgf"])
    def test_json_tables_equal_csv_rows(self, tmp_path, capsys, command):
        out, fingerprints = {}, {}
        for fmt in ("csv", "json"):
            cfg = write_config(tmp_path, dict(self.CONFIG, output={"format": fmt}), f"{fmt}.json")
            fingerprints[fmt] = load_config(cfg).fingerprint()
            out[fmt] = tmp_path / fmt
            assert main([command, "--config", cfg, "--out", str(out[fmt])]) == 0
        payload = json.loads((out["json"] / f"{command}.json").read_text())
        # the fingerprint covers output.format, so each run carries its own
        assert payload["fingerprint"] == fingerprints["json"]
        tables = self.TABLES[command]
        assert sorted(payload) == sorted(["fingerprint", *self.EXTRA[command],
                                          *(key for _, key in tables)])
        assert sorted(p.name for p in out["csv"].iterdir()) == sorted(n for n, _ in tables)
        for csv_name, key in tables:
            fingerprint, header, rows = read_csv(out["csv"] / csv_name)
            assert fingerprint == fingerprints["csv"]
            assert [sorted(r) for r in payload[key]] == [sorted(header)] * len(rows)
            assert [[format_value(r[h]) for h in header] for r in payload[key]] == rows


class TestCurves:
    def run(self, tmp_path, extra=None, out="out"):
        payload = dict(MAGNETIC)
        payload.update(extra or {})
        outdir = tmp_path / out
        cfg = write_config(tmp_path, payload)
        assert main(["curves", "--config", cfg, "--out", str(outdir)]) == 0
        return outdir

    def test_default_grids_and_symmetry(self, tmp_path, capsys):
        outdir = self.run(tmp_path)
        _, header, rows = read_csv(outdir / "curves_lambda.csv")
        assert header == ["lambda", "Lambda", "Lambda_prime", "in_domain"]
        assert len(rows) == 101
        values = [float(r[1]) for r in rows]
        assert all(r[3] == "true" for r in rows)
        # default grid spans the finiteness interval, symmetric about -1/2
        for i in range(101):
            assert abs(values[i] - values[100 - i]) <= 1e-12

    def test_lambda_round_trip_bit_exact(self, tmp_path, capsys):
        outdir = self.run(tmp_path)
        _, _, rows = read_csv(outdir / "curves_lambda.csv")
        sp = spectral_decompose(magnetic_example(math.pi / 4))
        for r in rows[::10]:
            assert float(r[1]) == cramer(float(r[0]), sp)

    def test_reversible_drift_refused_with_reason(self, tmp_path, capsys):
        cfg = write_config(tmp_path, REVERSIBLE)
        assert main(["curves", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "reversible" in err and "identically 0" in err
        assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback

    def test_out_of_domain_rows(self, tmp_path, capsys):
        sp = spectral_decompose(magnetic_example(math.pi / 4))
        dom = cramer_domain(sp)
        grid = {"min": dom.b + 0.01, "max": dom.b + 0.05, "count": 3}
        outdir = self.run(tmp_path, {"lambda_grid": grid}, out="outside")
        _, _, rows = read_csv(outdir / "curves_lambda.csv")
        for r in rows:
            assert r[1] == "inf"
            assert r[2] == "nan"
            assert r[3] == "false"

    def test_rate_file_vanishes_at_mean(self, tmp_path, capsys):
        sp = spectral_decompose(magnetic_example(math.pi / 4))
        mbar = mean_epr(sp)
        grid = {"min": mbar, "max": mbar, "count": 1}
        outdir = self.run(tmp_path, {"x_grid": grid}, out="at_mean")
        _, header, rows = read_csv(outdir / "curves_rate.csv")
        assert header == ["x", "I", "ell0", "residual"]
        assert len(rows) == 1
        assert float(rows[0][1]) <= 1e-12

    def test_identical_configs_identical_files(self, tmp_path, capsys):
        out1 = self.run(tmp_path, out="first")
        out2 = self.run(tmp_path, out="second")
        for name in ("curves_lambda.csv", "curves_rate.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_env_var_supplies_outdir(self, tmp_path, capsys, monkeypatch):
        outdir = tmp_path / "envout"
        monkeypatch.setenv("EPR_LDP_OUTDIR", str(outdir))
        cfg = write_config(tmp_path, MAGNETIC)
        assert main(["curves", "--config", cfg]) == 0
        assert (outdir / "curves_lambda.csv").exists()


class TestSpectrum:
    def test_top_eigenvalue_against_discretization(self, tmp_path, capsys):
        payload = dict(MAGNETIC, spectral={"j_max": 40, "nystrom_nodes": 400})
        cfg = write_config(tmp_path, payload)
        outdir = tmp_path / "spec"
        assert main(["spectrum", "--config", cfg, "--out", str(outdir)]) == 0
        _, header, rows = read_csv(outdir / "spectrum.csv")
        assert header == ["k", "j", "omega", "gamma"]
        assert len(rows) == 2 * 40
        assert {r[0] for r in rows} == {"0", "1"}
        top_gamma = max(float(r[3]) for r in rows)
        _, nheader, nrows = read_csv(outdir / "spectrum_nystrom.csv")
        assert nheader == ["rank", "gamma_nystrom"]
        top_discrete = float(nrows[0][1])
        assert abs(top_gamma - top_discrete) <= 1e-4 * top_gamma


    def test_reversible_drift_has_empty_spectrum(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(REVERSIBLE, output={"format": "json"}))
        outdir = tmp_path / "spec_rev"
        assert main(["spectrum", "--config", cfg, "--out", str(outdir)]) == 0
        out = json.loads((outdir / "spectrum.json").read_text())
        assert out["analytic"] == []
        assert out["gamma_max"] == 0.0


class TestMgf:
    def test_default_theta_and_exact_cells(self, tmp_path, capsys):
        payload = dict(MAGNETIC, mgf={"x0": [1.0, 0.0], "lambda": 0.1}, horizon=1.0)
        cfg = write_config(tmp_path, payload)
        outdir = tmp_path / "mgf"
        assert main(["mgf", "--config", cfg, "--out", str(outdir)]) == 0
        _, header, rows = read_csv(outdir / "mgf.csv")
        assert header == ["theta", "lambda", "T", "conditional_mgf", "cramer_finite_T"]
        assert len(rows) == 1
        theta, lam, T, value, lam_T = rows[0]
        assert float(theta) == 0.5 * 0.1 * 1.1
        assert float(value) > 0.0
        spec = magnetic_example(math.pi / 4)
        assert float(lam_T) == cramer_finite_T(0.1, spec, 1.0)

    def test_supercritical_theta_prints_inf(self, tmp_path, capsys):
        payload = dict(MAGNETIC, mgf={"x0": [1.0, 0.0], "theta": 1.2}, horizon=1.0)
        cfg = write_config(tmp_path, payload)
        outdir = tmp_path / "mgf_inf"
        assert main(["mgf", "--config", cfg, "--out", str(outdir)]) == 0
        _, _, rows = read_csv(outdir / "mgf.csv")
        assert rows[0][3] == "inf"

    def test_reversible_drift_is_trivial(self, tmp_path, capsys):
        # no rotation: the functional vanishes, so MGF 1, Lambda_T 0, gamma_max 0
        payload = {"system": {"matrix_A": [[-1.0, 0.0], [0.0, -2.0]]}, "horizon": 1.0,
                   "mgf": {"x0": [1.0, 0.0], "lambda": 0.1}, "output": {"format": "json"}}
        cfg = write_config(tmp_path, payload)
        outdir = tmp_path / "mgf_rev"
        assert main(["mgf", "--config", cfg, "--out", str(outdir)]) == 0
        out = json.loads((outdir / "mgf.json").read_text())
        assert out["gamma_max"] == 0.0
        assert out["rows"][0]["conditional_mgf"] == 1.0
        assert out["rows"][0]["cramer_finite_T"] == 0.0

    def test_requires_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MAGNETIC)
        assert main(["mgf", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_long_horizon(self, tmp_path, capsys):
        # |alpha| T = 714, past the double range of e^{|alpha| T}
        payload = dict(MAGNETIC, mgf={"x0": [1.0, 0.0], "lambda": 0.1}, horizon=1010.0)
        cfg = write_config(tmp_path, payload)
        outdir = tmp_path / "mgf_long"
        assert main(["mgf", "--config", cfg, "--out", str(outdir)]) == 0
        _, _, rows = read_csv(outdir / "mgf.csv")
        assert math.isfinite(float(rows[0][4]))


class TestSimulate:
    MC = {"dt": 0.01, "n_traj": 32, "seed": 5}

    def test_samples_and_stats(self, tmp_path, capsys):
        payload = dict(MAGNETIC, horizon=2.0, mc=self.MC)
        cfg = write_config(tmp_path, payload)
        outdir = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(outdir)]) == 0
        _, header, rows = read_csv(outdir / "simulate_samples.csv")
        assert header == ["trajectory", "e_p"]
        assert len(rows) == 32
        stats = json.loads((outdir / "simulate_stats.json").read_text())
        assert stats["n"] == 32
        assert stats["T"] == 2.0
        assert math.isfinite(stats["mean"])
        assert stats["metadata"]["warnings"] == []

    def test_replay_identical_bytes(self, tmp_path, capsys):
        payload = dict(MAGNETIC, horizon=2.0, mc=self.MC)
        cfg = write_config(tmp_path, payload)
        for out in ("a", "b"):
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        for name in ("simulate_samples.csv", "simulate_stats.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_seed_flag_changes_fingerprint_and_samples(self, tmp_path, capsys):
        payload = dict(MAGNETIC, horizon=2.0, mc=self.MC)
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "base")]) == 0
        assert (
            main(
                ["simulate", "--config", cfg, "--seed", "99",
                 "--out", str(tmp_path / "reseeded")]
            )
            == 0
        )
        fp1, _, rows1 = read_csv(tmp_path / "base" / "simulate_samples.csv")
        fp2, _, rows2 = read_csv(tmp_path / "reseeded" / "simulate_samples.csv")
        assert fp1 != fp2
        assert rows1 != rows2

    def test_empirical_mgf_attached(self, tmp_path, capsys):
        payload = dict(
            MAGNETIC, horizon=2.0, mc=self.MC,
            mgf={"x0": [1.0, 0.0], "lambda": 0.05},
        )
        cfg = write_config(tmp_path, payload)
        outdir = tmp_path / "sim_mgf"
        assert main(["simulate", "--config", cfg, "--out", str(outdir)]) == 0
        stats = json.loads((outdir / "simulate_stats.json").read_text())
        est = stats["empirical_mgf"]
        assert est["lambda"] == 0.05
        assert math.isfinite(est["value"])
        assert est["stderr"] > 0.0

    def test_worker_split_writes_identical_bytes(self, tmp_path, capsys, monkeypatch):
        # the fingerprint and metadata do not record how many processes ran
        cfg = write_config(tmp_path, dict(MAGNETIC, horizon=2.0, mc=self.MC))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "serial")]) == 0
        monkeypatch.setattr(mc, "_MIN_TRAJ_PER_WORKER", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert mc._worker_count(self.MC["n_traj"]) == 2
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "split")]) == 0
        for name in ("simulate_samples.csv", "simulate_stats.json"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "split" / name
            ).read_bytes()
        stats = json.loads((tmp_path / "split" / "simulate_stats.json").read_text())
        assert stats["config"] == mc.SimConfig(T=2.0, **self.MC).fingerprint()
        assert sorted(stats["metadata"]) == ["dt", "n_steps", "scheme", "warnings"]


def _imported_by(module, prefixes):
    code = (f"import sys, {module}; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {prefixes!r}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    return out.stdout.strip()


def test_cli_import_skips_scipy_stats():
    # scipy is most of the start-up cost: the library needs only numpy, and
    # `verify` imports scipy.stats when it runs
    for module in ("epr_ldp", "epr_ldp.cli", "epr_ldp.verify"):
        assert _imported_by(module, ("scipy",)) == "[]", module


def test_cli_import_skips_process_pools():
    # the process-pool modules cost 20-30 ms of start-up; they are imported
    # only when an ensemble is split over workers
    for module in ("epr_ldp", "epr_ldp.cli"):
        assert _imported_by(module, ("multiprocessing", "concurrent")) == "[]", module


def test_cli_import_skips_numpy_random():
    # numpy.random costs 12-17 ms of start-up; the Monte Carlo layer loads
    # it when it first builds generators
    code = "import sys, epr_ldp.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "False"


class TestVerify:
    def test_default_suite_passes(self, tmp_path, capsys):
        outdir = tmp_path / "verify"
        assert main(["verify", "--out", str(outdir)]) == 0
        report = json.loads((outdir / "verify.json").read_text())
        assert report["all_passed"] is True
        assert len(report["checks"]) == 10
        assert report["total_seconds"] < 600.0
        assert all(c["passed"] for c in report["checks"])
