"""Tests of the benchmark harness itself (not of the solver).

    python3 -m pytest -q perfbench
"""

import logging
from dataclasses import replace

import numpy as np
import pytest

import gate
import run
import spans
import workloads
from barchan import projection, stepper, verify


def _span(id, parent, start, end, name="x"):
    return spans.Span(id, parent, name, start, end)


def test_self_time_of_nested_spans():
    tree = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 2.0, 3.0),
        _span(4, 1, 5.0, 9.0),
        _span(5, 0, 11.0, 12.0),
    ]
    assert spans.self_times(tree) == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0, 5: 1.0})


def test_self_time_counts_overlapping_children_once():
    tree = [_span(1, 0, 0.0, 10.0), _span(2, 1, 1.0, 6.0), _span(3, 1, 4.0, 12.0)]
    assert spans.self_times(tree)[1] == pytest.approx(1.0)


def test_layer_metrics_on_synthetic_spans():
    tree = [
        _span(1, 0, 0.0, 10.0, "stepper.run"),
        _span(2, 1, 1.0, 5.0, "projection.resolvent_step"),
        _span(3, 2, 1.5, 4.5, "projection.project_pdhg"),
        _span(4, 1, 6.0, 7.0, "kernels.nonlocal_slope"),
        _span(5, 0, 10.0, 12.0, "verify.make_test_functions"),
        _span(6, 5, 10.5, 11.5, "verify.project_pdhg"),
    ]
    tree[2].iterations = 300
    tree[5].iterations = 50
    m = spans.layer_metrics(tree, traced_wall=12.0, steps=1)
    assert m["projection.self_s"] == pytest.approx(4.0)
    assert m["projection.share"] == pytest.approx(4.0 / 12.0)
    assert m["projection.calls"] == 1 and m["projection.iters_per_call.max"] == 300
    assert m["projection.us_per_iter"] == pytest.approx(3.0 / 300 * 1e6)
    assert m["stepper.self_s"] == pytest.approx(5.0)
    assert m["kernels.nonlocal_slope.us_per_call"] == pytest.approx(1e6)
    assert m["trace.coverage"] == pytest.approx(1.0)
    # The verifier's projections are reported apart from the stepper's.
    assert m["verify.project_pdhg.calls"] == 1 and m["verify.project_pdhg.iters"] == 50
    assert m["verify.project_pdhg.self_s"] == pytest.approx(1.0)
    assert m["verify.make_test_functions.self_s"] == pytest.approx(1.0)


def _short(name, seed=0, steps=3):
    case = workloads.generate(name, seed)
    return replace(case, params=replace(case.params, T=steps * workloads.step_size(case)))


def test_wrappers_restored_after_traced_run():
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in spans.TARGETS]
    tracer = spans.Tracer()
    with tracer.recording():
        assert stepper.run is not originals[0][2]
        workloads.solve(_short("audit1d", steps=2))
    for mod, attr, fn in originals:
        assert getattr(mod, attr) is fn, f"{mod.__name__}.{attr} not restored"
    names = {s.name for s in tracer.spans}
    assert {
        "stepper.run",
        "projection.resolvent_step",
        "verify.project_pdhg",
        "verify.vi_residual",
    } <= names
    assert all(s.end >= s.start for s in tracer.spans)


def test_wrappers_restored_when_the_solve_raises():
    original = projection.project_pdhg
    with pytest.raises(RuntimeError):
        with spans.Tracer().recording():
            raise RuntimeError("boom")
    assert projection.project_pdhg is original
    assert verify.vi_report.__name__ == "vi_report" and not hasattr(verify.vi_report, "__wrapped__")


def test_reference_gate_rejects_field_perturbed_by_ten_tolerances():
    case = _short("pile1d")
    out = workloads.solve(case)
    ref = gate.reference_entry(case, out)
    assert gate.check(case, out, ref).ok
    cert = float(ref["cert"])
    tol = gate.field_tolerance(case, cert, cert)
    field = out.traj.snapshots[-1].u.values
    field[128] += 0.5 * tol
    assert gate.compare(case, out, ref) == []
    field[128] += 9.5 * tol
    assert any("max diff" in p for p in gate.compare(case, out, ref))
    verdict = gate.check(case, out, ref)
    assert not verdict.ok and verdict.failed == verdict.attempted


def test_audit_gate_rejects_shifted_report_value():
    case = _short("audit1d", steps=3)
    out = workloads.solve(case)
    ref = gate.reference_entry(case, out)
    assert gate.check(case, out, ref).ok
    tol = gate.audit_tolerances(case, out, gate.field_tolerance(case, 0.0, 0.0))["l1_final"]
    ref["l1_final"] = ref["l1_final"] + 10.0 * tol
    assert any("l1_final" in p for p in gate.check(case, out, ref).problems)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_deterministic_per_seed(name):
    a, b = workloads.generate(name, 7), workloads.generate(name, 7)
    assert a.params == b.params
    np.testing.assert_array_equal(a.u0.values, b.u0.values)
    if a.twin is not None:
        np.testing.assert_array_equal(a.twin.values, b.twin.values)
    inputs = {
        (repr(c.params), c.u0.values.tobytes())
        for c in (workloads.generate(name, seed) for seed in range(6))
    }
    assert len(inputs) > 1, "the seed does not change the inputs"


def test_committed_reference_covers_default_seed():
    for name in workloads.WORKLOADS:
        ref = gate.load_reference(name, workloads.DEFAULT_SEED)
        assert ref is not None and "u" in ref, name


def test_run_reports_no_result_when_no_solve_passes(monkeypatch, capsys):
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(gate, "check", lambda case, out, ref: gate.Verdict(1, 1, ["rejected"]))
    logger = logging.getLogger("barchan")
    level = logger.level
    try:
        assert run.main(["--workload", "pile1d", "--seconds", "0", "--trace", "1"]) == 4
    finally:
        logger.setLevel(level)
    assert '"metrics"' not in capsys.readouterr().out


def test_scaled_time_takes_out_host_speed():
    for ndim, (_, ref_s) in run.CALIBRATION.items():
        assert run.scaled(0.3, ref_s, ndim) == pytest.approx(0.3)
        # A host running twice as slow doubles the solve and the loop alike.
        assert run.scaled(0.6, 2 * ref_s, ndim) == pytest.approx(0.3)
