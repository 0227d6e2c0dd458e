"""Smoke runs of the experiment scripts at tiny sizes.

Nothing else imports ``scripts/``, so these runs are what catches a script
that calls the library with a keyword or attribute it no longer has.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# script -> (tiny argv, a line its report must print)
RUNS = {
    "discretization_study": (
        ["--n-traj", "8", "--horizon", "0.5", "--steps", "0.1", "0.05"],
        "consecutive bias ratios",
    ),
    "horizon_sweep": (["--tilts", "0.1", "--horizons", "2", "40"], "T*error"),
    "spectrum_convergence": (["--nodes", "16", "32", "--top", "3"], "worst rel err"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_script_runs(name, capsys):
    argv, expect = RUNS[name]
    assert load(name).main(argv) == 0
    assert expect in capsys.readouterr().out


def test_horizon_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert load("horizon_sweep").main(
        ["--tilts", "0.1", "--horizons", "2", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,T,cramer_finite_T,limit"
    assert len(lines) == 2
