"""Spans recorded from outside the program, and the per-layer metrics.

The tracer replaces each public layer function at the module attribute
its caller resolves it by (``barchan.stepper.transport_flux`` is the
binding ``_advance`` calls) with a wrapper that records a span: id,
parent id, name, start and end.  Calls that return a ``ProjectionResult``
also record its iteration count, convergence flag and certified error.
Spans stay in memory; ``restore`` puts every original function back.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import workloads  # noqa: F401  (puts src/ on sys.path)

from barchan import projection, stepper, verify
from barchan.projection import ProjectionResult

# (module, attribute, span name).  The layer is the span name's prefix.
TARGETS = (
    (stepper, "run", "stepper.run"),
    (stepper, "resolvent_step", "projection.resolvent_step"),
    (stepper, "project_pdhg", "projection.project_pdhg"),
    (projection, "project_pdhg", "projection.project_pdhg"),
    (stepper, "transport_flux", "stepper.transport_flux"),
    (stepper, "transport_div", "stepper.transport_div"),
    (stepper, "transport_outflow", "stepper.transport_outflow"),
    (stepper, "source_eval", "stepper.source_eval"),
    (stepper, "cfl_dt", "stepper.cfl_dt"),
    (stepper, "transport_speed_bound", "stepper.transport_speed_bound"),
    (stepper, "nonlocal_slope", "kernels.nonlocal_slope"),
    (stepper, "h_eval", "constitutive.h_eval"),
    (stepper, "gamma_eval", "constitutive.gamma_eval"),
    (stepper, "max_slope", "grid.max_slope"),
    (stepper, "admissible", "grid.admissible"),
    (verify, "make_test_functions", "verify.make_test_functions"),
    # The verifier's own projections (random test functions), kept apart
    # from the stepper's so that ``projection.*`` describes time steps only.
    (verify, "project_pdhg", "verify.project_pdhg"),
    (verify, "vi_report", "verify.vi_report"),
    (verify, "vi_residual", "verify.vi_residual"),
    (verify, "transport_flux", "verify.transport_flux"),
    (verify, "source_eval", "verify.source_eval"),
    (verify, "complementarity_report", "verify.complementarity_report"),
    (verify, "contraction_report", "verify.contraction_report"),
)

# Metric prefix -> the span names whose self time it sums.
SELF_TIME_GROUPS = {
    "projection": ("projection.resolvent_step", "projection.project_pdhg"),
    "kernels.nonlocal_slope": ("kernels.nonlocal_slope",),
    "constitutive.eval": ("constitutive.h_eval", "constitutive.gamma_eval"),
    "stepper.transport": (
        "stepper.transport_flux",
        "stepper.transport_div",
        "stepper.transport_outflow",
    ),
    "stepper.source": ("stepper.source_eval",),
    "stepper.cfl": ("stepper.cfl_dt", "stepper.transport_speed_bound"),
    "grid.max_slope": ("grid.max_slope",),
    "grid.admissible": ("grid.admissible",),
    "stepper": ("stepper.run",),
    "verify.make_test_functions": ("verify.make_test_functions",),
    "verify.project_pdhg": ("verify.project_pdhg",),
    "verify.vi_report": (
        "verify.vi_report",
        "verify.vi_residual",
        "verify.transport_flux",
        "verify.source_eval",
    ),
    "verify.complementarity": ("verify.complementarity_report",),
    "verify.contraction": ("verify.contraction_report",),
}

# Calls counted by name: metric -> span names.
CALL_COUNTS = {
    "kernels.nonlocal_slope.calls": ("kernels.nonlocal_slope",),
    "constitutive.eval.calls": ("constitutive.h_eval", "constitutive.gamma_eval"),
    "verify.vi_residual.calls": ("verify.vi_residual",),
    "verify.transport_flux.calls": ("verify.transport_flux",),
    "verify.project_pdhg.calls": ("verify.project_pdhg",),
}


@dataclass
class Span:
    id: int
    parent: int  # 0 for a top-level span
    name: str
    start: float
    end: float = 0.0
    iterations: int = -1  # set when the call returned a ProjectionResult
    converged: bool = True
    certified_error: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; use ``with tracer.recording():``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack = [0]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans) + 1, stack[-1], name, clock())
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if isinstance(result, ProjectionResult):
                span.iterations = result.iterations
                span.converged = result.converged
                span.certified_error = result.primal_dual_gap
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def recording(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by its children's union."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out[s.id] = s.duration - covered
    return out


def layer_metrics(spans: list[Span], traced_wall: float, steps: int) -> dict[str, float]:
    """Per-layer metrics of one traced solve (values only; units live in
    ``BENCHMARK.json``).  ``steps`` is the step count of the solve's runs."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group_self(names) -> float:
        return sum(own[s.id] for n in names for s in by_name.get(n, ()))

    def count(names) -> int:
        return sum(len(by_name.get(n, ())) for n in names)

    m: dict[str, float] = {f"{k}.self_s": group_self(v) for k, v in SELF_TIME_GROUPS.items()}
    m.update({k: float(count(v)) for k, v in CALL_COUNTS.items()})

    # Projection calls: each resolvent step, plus the projection of an
    # inadmissible start that ``run`` makes directly.
    names = {s.id: s.name for s in spans}
    pdhg = by_name.get("projection.project_pdhg", [])
    calls = by_name.get("projection.resolvent_step", []) + [
        s for s in pdhg if names.get(s.parent) != "projection.resolvent_step"
    ]
    iters = np.array([s.iterations for s in pdhg], dtype=float)
    call_ms = np.array([s.duration for s in calls]) * 1e3
    total_iters = float(iters.sum())
    m.update(
        {
            "projection.calls": float(len(calls)),
            "projection.share": m["projection.self_s"] / traced_wall,
            "projection.iters_per_call.mean": float(iters.mean()) if iters.size else 0.0,
            "projection.iters_per_call.max": float(iters.max()) if iters.size else 0.0,
            "projection.us_per_iter": (
                sum(s.duration for s in pdhg) / total_iters * 1e6 if total_iters else 0.0
            ),
            "projection.ms_per_call.p50": float(np.percentile(call_ms, 50)) if calls else 0.0,
            "projection.ms_per_call.p90": float(np.percentile(call_ms, 90)) if calls else 0.0,
            "projection.shortcut_frac": float(np.mean(iters == 0)) if iters.size else 0.0,
            "projection.certified_error.max": max((s.certified_error for s in pdhg), default=0.0),
            "projection.nonconverged": float(sum(not s.converged for s in pdhg)),
            "kernels.nonlocal_slope.us_per_call": (
                m["kernels.nonlocal_slope.self_s"] / m["kernels.nonlocal_slope.calls"] * 1e6
                if m["kernels.nonlocal_slope.calls"]
                else 0.0
            ),
            "stepper.steps": float(steps),
            "verify.project_pdhg.iters": float(
                sum(s.iterations for s in by_name.get("verify.project_pdhg", ()))
            ),
            "trace.coverage": sum(s.duration for s in spans if s.parent == 0) / traced_wall,
        }
    )
    return m
