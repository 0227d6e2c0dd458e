"""Benchmark of the epr_ldp library: one workload per run.

    python3 perfbench/run.py --workload ldp_curves --seed 1 --seconds 20 --trace 0

Runs the named workload as a closed loop (one caller, whole rounds of ops)
for about ``--seconds`` seconds on inputs generated from ``--seed``, checks
every output, and prints the metrics named in BENCHMARK.json as the last
line of standard output.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` replays the same rounds with spans around the benchmark's calls
into each package module and prints the per-layer metrics.  The line before
the result is a JSON record of the run: environment, seed, op count, failures
and (mc_wide) ensemble sha256s.  Records and spans are also written under
``.perfbench_out/``.  The library is imported from ``src/`` of the checkout.
"""

from __future__ import annotations

import os
import sys

from common import BLAS_THREADS, BLAS_VARS

for _var in BLAS_VARS:  # before numpy is first imported
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time

from common import OUT, ROOT, SRC, child_env, run_child
from spans import NullTracer, Tracer, layer_metrics
from workloads import NAMES

SETUP_PROBES = 3
IMPORT_PROBES = 3


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library() -> None:
    package = SRC / "epr_ldp"
    if not (package / "__init__.py").is_file():
        fail(f"no epr_ldp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import epr_ldp

    if os.path.dirname(os.path.realpath(epr_ldp.__file__)) != os.path.realpath(package):
        fail(f"epr_ldp imported from {epr_ldp.__file__}, not from {package}")


class OpContext:
    """Per-run state an op may touch: time to leave out of its latency
    (checks of a child command's files) and the largest child RSS."""

    def __init__(self) -> None:
        self.excluded = 0.0
        self.child_rss_mb = 0.0

    @contextlib.contextmanager
    def untimed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - t0


class Pass:
    def __init__(self) -> None:
        self.latencies: list = []
        self.round_rates: list = []  # work per second of op time, per round
        self.rounds = 0
        self.failures: list = []


def run_pass(wl, tr, ctx, budget_s=None, rounds=None) -> Pass:
    """Whole rounds until ``budget_s`` has elapsed, or exactly ``rounds``."""
    p = Pass()
    start = time.perf_counter()
    while p.rounds < rounds if rounds is not None else time.perf_counter() - start < budget_s:
        work, first = 0, len(p.latencies)
        for op in wl.ops(p.rounds):
            ctx.excluded = 0.0
            tr.begin_op(op.id)
            t0 = time.perf_counter()
            ok = False
            try:
                work += wl.run(op, tr, ctx)
                ok = True
            except Exception as exc:  # a failed op is counted, never fatal
                known = op.known_defect is not None and op.known_defect(exc)
                p.failures.append({"op": op.id, "known_defect": bool(known),
                                   "error": f"{type(exc).__name__}: {exc}"[:300]})
            p.latencies.append(time.perf_counter() - t0 - ctx.excluded)
            tr.end_op(ok)
        p.round_rates.append(work / sum(p.latencies[first:]))
        p.rounds += 1
    return p


def setup_times(workload: str, seed: int) -> list:
    """Cold process start to first runnable op, SETUP_PROBES times."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            fail(f"set-up probe of {workload} failed")
    return times


def _cache_bytes(level: int):
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(f"{base}/{entry}/level") as fh:
                if int(fh.read()) != level:
                    continue
            with open(f"{base}/{entry}/size") as fh:
                size = fh.read().strip()
            scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
            return int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return None


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "epr_ldp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
    }


def end_to_end(wl, p: Pass, ctx: OpContext, setup: list) -> dict:
    lat = p.latencies
    if wl.child_rss:
        rss = ctx.child_rss_mb
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": statistics.median(setup),
        "work_per_s": statistics.median(p.round_rates),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[-1] * 1e3,
        "peak_rss_mb": rss,
    }


def per_layer(ref: Pass, traced: Pass, tr: Tracer) -> dict:
    values = layer_metrics(tr.spans)
    values["trace.overhead_frac"] = sum(traced.latencies) / sum(ref.latencies) - 1.0
    values["trace.ops"] = len(traced.latencies)
    return values


def run_probes(wl, tr: Tracer) -> list:
    """Cold imports on every workload, and the workload's own probe;
    returns their failures."""
    probes = [("cli.import", "import epr_ldp.cli"), ("cli.import_lib", "import epr_ldp")]
    try:
        for _ in range(IMPORT_PROBES):
            for name, code in probes:
                tr.call(name, run_child, [sys.executable, "-c", code])
        if hasattr(wl, "probe"):
            wl.probe(tr)
    except Exception as exc:
        return [{"op": "probe", "known_defect": False,
                 "error": f"{type(exc).__name__}: {exc}"[:300]}]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    import_library()
    module = importlib.import_module(f"workloads.{args.workload}")
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = module.Workload(args.seed, workdir)
    try:
        if args.setup_probe:
            wl.ops(0)
            print("ready", flush=True)
            return 0

        ctx = OpContext()
        if args.trace:
            ref = run_pass(wl, NullTracer(), ctx, budget_s=args.seconds / 2)
            tr = Tracer()
            main_pass = run_pass(wl, tr, ctx, rounds=ref.rounds)
            probe_failures = run_probes(wl, tr)
            values = per_layer(ref, main_pass, tr)
            tr.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")
            passes = [ref, main_pass]
            table = bench["per_layer"]
        else:
            setup = setup_times(args.workload, args.seed)
            probe_failures = []
            main_pass = run_pass(wl, NullTracer(), ctx, budget_s=args.seconds)
            values = end_to_end(wl, main_pass, ctx, setup)
            passes = [main_pass]
            table = bench["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in table}
    if set(units) != set(values):
        fail(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures] + probe_failures
    known = sum(f["known_defect"] for f in failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "work_unit": wl.work_unit,
        "rounds": main_pass.rounds,
        "ops": len(main_pass.latencies),
        "round_work_per_s": main_pass.round_rates,
        "ops_failed_frac": len(main_pass.failures) / len(main_pass.latencies),
        "failed_known_defect": known,
        "failed_unexpected": len(failures) - known,
        "failures": failures[:40],
        "environment": environment(),
        **getattr(wl, "record", lambda: {})(),
    }
    if not args.trace:
        record["setup_probes_s"] = setup
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": known == len(failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
