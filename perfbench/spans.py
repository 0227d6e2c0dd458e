"""In-memory spans around the benchmark's own calls into epr_ldp, and the
per-layer metrics derived from them.

A span is (name, start, end, parent, op id, ok, work).  Layer spans are
named ``<layer>.<function>`` after the package module they call into; each
op of a workload gets one ``op`` span that is the parent of its layer spans.
Spans are only opened by the benchmark, never inside the library, so a
``chaos`` span also covers chaos's own internal calls into spectral and
model.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Optional

LAYERS = ("model", "cramer", "spectral", "chaos", "montecarlo", "cli")

# (span name, unit) of every per-function median latency.
P50 = (
    ("model.validate_system", "us"),
    ("model.spectral_decompose", "us"),
    ("cramer.rate", "us"),
    ("cramer.cramer_curve", "us"),
    ("cramer.symmetry_residuals", "us"),
    ("cramer.legendre_oracle", "us"),
    ("spectral.kernel_spectrum", "us"),
    ("spectral.log_det_tail", "us"),
    ("spectral.spectrum_gamma_tail", "us"),
    ("spectral.trace_closed_form", "us"),
    ("spectral.nystrom_spectrum", "ms"),
    ("chaos.conditional_mgf", "us"),
    ("chaos.cramer_finite_T", "us"),
    ("montecarlo.empirical_mgf", "us"),
    ("montecarlo.tail_estimate", "us"),
)
# Ensemble spans carry their trajectory-steps as work.
ENSEMBLES = ("montecarlo.exact_ou", "montecarlo.euler_maruyama",
             "montecarlo.z_integral")
CLI_COMMANDS = ("validate", "curves", "spectrum", "mgf", "simulate")
_SCALE = {"us": 1e6, "ms": 1e3}


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def call_work(self, name, work, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_op(self, op_id: str) -> None:
        pass

    def end_op(self, ok: bool) -> None:
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self) -> None:
        self.spans: list = []
        self._op: Optional[int] = None
        self._op_id = "probe"

    def call(self, name, fn, *args, **kwargs):
        return self.call_work(name, None, fn, *args, **kwargs)

    def call_work(self, name, work, fn, *args, **kwargs):
        t0 = time.perf_counter()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            self.spans.append((name, t0, time.perf_counter(), self._op,
                               self._op_id, ok, work))

    def begin_op(self, op_id: str) -> None:
        self._op = len(self.spans)
        self._op_id = op_id
        self.spans.append(["op", time.perf_counter(), None, None, op_id, None, None])

    def end_op(self, ok: bool) -> None:
        span = self.spans[self._op]
        span[2] = time.perf_counter()
        span[5] = ok
        self.spans[self._op] = tuple(span)
        self._op = None
        self._op_id = "probe"

    def dump(self, path) -> None:
        fields = ["name", "start", "end", "parent", "op", "ok", "work"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics from the spans of one traced run.

    A function or layer the workload never called reports 0.
    """
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def durations(name):
        return [s[2] - s[1] for s in by_name.get(name, ())]

    out = {}
    for layer in LAYERS:
        own = [s for s in spans if s[0].startswith(layer + ".")]
        out[f"{layer}.calls"] = len(own)
        out[f"{layer}.busy_s"] = sum(s[2] - s[1] for s in own)
        out[f"{layer}.failed"] = sum(1 for s in own if not s[5])
    for name, unit in P50:
        out[f"{name}.p50_{unit}"] = _median(durations(name)) * _SCALE[unit]
    for name in ENSEMBLES:
        rates = [s[6] / (s[2] - s[1]) for s in by_name.get(name, ()) if s[5]]
        out[f"{name}.traj_steps_per_s"] = _median(rates)
    setup = [(s[2] - s[1]) / s[6] for s in by_name.get("montecarlo.per_traj_setup", ())]
    out["montecarlo.per_traj_setup_us"] = _median(setup) * 1e6
    out["cli.import_ms"] = _median(durations("cli.import")) * 1e3
    out["cli.import_lib_ms"] = _median(durations("cli.import_lib")) * 1e3
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.wall_ms"] = _median(durations(f"cli.{cmd}")) * 1e3
    return out
