"""Paths, child processes and check helpers shared by the workloads."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import time
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread: each workload is one caller on one core, and the second
# core of the reference box absorbs the OS instead of adding noise.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CHILD_TIMEOUT_S = 60.0


class CheckFailed(Exception):
    """An output of the library did not pass its correctness check."""


class ExitStatus(CheckFailed):
    """A command exited with another status than the correct one."""

    def __init__(self, argv, got: int, expected: int):
        super().__init__(f"{argv[-1]} exited {got}, expected {expected}")
        self.got = got


def check(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclasses.dataclass
class Op:
    """One operation of a workload round.

    ``known_defect`` recognises the failure that a known defect of the
    library produces on this input; such a failure still counts as a failed
    op, but it does not make the run incorrect.
    """

    id: str
    kind: str
    args: dict
    known_defect: Optional[Callable[[BaseException], bool]] = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list, expected: int = 0, stderr_path=None) -> float:
    """Run ``argv`` to completion; return its peak RSS in MB.

    Raises :class:`ExitStatus` when the exit status is not ``expected``.
    The child is waited for with ``wait4`` so its own peak RSS is read.
    """
    with open(stderr_path or os.devnull, "wb") as err:
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise CheckFailed(f"{argv[-1]} timed out after {CHILD_TIMEOUT_S}s")
        time.sleep(0.001)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != expected:
        raise ExitStatus(argv, proc.returncode, expected)
    return usage.ru_maxrss / 1024.0
