"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload dune1d --seed 0 --seconds 30 --trace 0

The workload runs in this process with BLAS and OpenMP pinned to one
thread, as a closed loop of one solve at a time until ``--seconds`` have
passed.  Every solve is checked by ``gate.check``; only solves that pass
count towards the times.  Times are taken at the host's reference speed:
each is scaled by the reference time in ``CALIBRATION`` over the time of
``calibrate`` run just before or after it (see ``BENCHMARK.md``).  With
``--trace 0`` the last line reports the end-to-end metrics of
``BENCHMARK.json``:

* ``wall_s``: median scaled time of an untraced solve, inputs ready to
  outputs produced (``run``, and on ``audit1d`` the twin run and the audit
  calls);
* ``setup_s``: median scaled set-up, of the one in this process and those
  in fresh interpreters started at even intervals through the run:
  imports, input generation, kernel build and a one-step warm-up;
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` untraced and traced solves alternate and the last line
reports the per-layer metrics of the fastest traced solve (unscaled); the
spans of the last traced solve are written to ``.perfbench/`` under the
repository root.  Earlier lines of output record the environment and every
raw solve, set-up and calibration time behind the reported figures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import logging
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 5  # fresh-interpreter set-ups per untraced run
SETUP_CALIBRATIONS = 5
MIN_ROUNDS = 3
PROBE_TIMEOUT_S = 120
MIN_PROJECTION_SHARE = 0.9
# Grid dimension -> (iterations of the calibration loop, its time at the
# reference speed: the fastest seen on the reference host, see BENCHMARK.md).
CALIBRATION = {1: (1000, 0.0130), 2: (100, 0.0044)}


def calibrate(ndim: int) -> float:
    """Seconds taken by a fixed numpy loop that does not touch ``barchan``.

    The loop is made like the solver's inner loops, many numpy calls on
    arrays of 64 nodes per axis, so that a slow spell of a shared host slows
    it about as much as it slows a solve on a grid of ``ndim`` dimensions.
    """
    import numpy as np

    iterations, _ = CALIBRATION[ndim]
    start = time.perf_counter()
    x = np.linspace(-1.0, 1.0, 64**ndim).reshape((64,) * ndim) ** 3
    y = np.zeros((64,) * (ndim - 1) + (63,))
    for _ in range(iterations):
        y = np.clip(y + 0.3 * np.diff(x), -1.0, 1.0)
        x = x - 0.3 * np.concatenate((y[..., :1], np.diff(y), -y[..., -1:]), axis=-1)
    return time.perf_counter() - start


def scaled(seconds: float, calibration_s: float, ndim: int) -> float:
    """``seconds`` as they would read at the reference speed of the host."""
    return seconds * CALIBRATION[ndim][1] / calibration_s


def setup(name: str, seed: int):
    """Imports, input generation, kernel build and a one-step warm-up.

    Returns the generated case and the seconds this took.
    """
    start = time.perf_counter()
    import workloads
    from barchan import stepper

    if Path(stepper.__file__).resolve().parent.parent != workloads.SRC:
        raise ImportError(f"barchan imported from {stepper.__file__}, not from {workloads.SRC}")
    case = workloads.generate(name, seed)
    stepper.kernel_for(case.params, case.u0.grid)
    workloads.solve(workloads.one_step(case))
    return case, time.perf_counter() - start


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Set-up seconds and calibration seconds measured in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
    done = subprocess.run(
        cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT
    )
    setup_s, calibration_s = done.stdout.split()[-2:]
    return float(setup_s), float(calibration_s)


def timed_solve(case, tracer=None):
    """One solve, timed; the tracer (if any) is installed outside the timing."""
    import workloads

    gc.collect()
    with tracer.recording() if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        out = workloads.solve(case)
        wall = time.perf_counter() - start
    return out, wall


def measure(case, seconds: float, trace: bool, probe=None) -> dict:
    """Solve ``case`` in a closed loop for ``seconds``.

    ``probe`` (if given) is called ``SETUP_PROBES`` times, at even intervals
    through the run, between solves; its return values are kept as
    ``setups``.
    """
    import gate
    import spans

    ref = gate.load_reference(case.name, case.seed)
    ndim = len(case.u0.grid.shape)
    start = time.perf_counter()
    deadline = start + seconds
    probe_at = [start + seconds * (i + 0.5) / SETUP_PROBES for i in range(SETUP_PROBES)]
    if probe is None:
        probe_at = []
    walls, calibrations, traced_walls, layers, overheads, setups = [], [], [], [], [], []
    attempted = failed = 0
    problems: list[str] = []
    last_tracer = None
    rounds, round_s = 0, 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() + round_s <= deadline:
        if probe_at and time.perf_counter() >= probe_at[0]:
            probe_at.pop(0)
            setups.append(probe())
        round_start = time.perf_counter()
        passed = {}
        for traced in (False, True) if trace else (False,):
            tracer = spans.Tracer() if traced else None
            calibration_s = None if traced else calibrate(ndim)
            try:
                out, wall = timed_solve(case, tracer)
                verdict = gate.check(case, out, ref)
            except Exception:  # a solve that raises fails all its operations
                traceback.print_exc()
                ops = gate.operations(case)
                verdict = gate.Verdict(ops, ops, ["solve raised"])
            attempted += verdict.attempted
            failed += verdict.failed
            problems += verdict.problems
            if not verdict.ok:
                continue
            passed[traced] = wall
            if not traced:
                walls.append(wall)
                calibrations.append(calibration_s)
            else:
                traced_walls.append(wall)
                steps = len(out.traj.steps) + (len(out.twin.steps) if out.twin else 0)
                layers.append(spans.layer_metrics(tracer.spans, wall, steps))
                last_tracer = tracer
        if len(passed) == 2:
            # Host speed drifts slowly, so compare a traced solve with the
            # untraced one of the same round.
            overheads.append(passed[True] / passed[False] - 1.0)
        round_s = time.perf_counter() - round_start
        rounds += 1
    setups += [probe() for _ in probe_at]
    if last_tracer is not None:
        last_tracer.write(ROOT / ".perfbench" / f"spans-{case.name}-seed{case.seed}.jsonl.gz")
    return {
        "walls": walls,
        "calibrations": calibrations,
        "traced_walls": traced_walls,
        "layers": layers,
        "overheads": overheads,
        "setups": setups,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "reference_checked": ref is not None,
    }


def environment(name: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": name,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    # run() warns on every dune2d solve that it projects the inadmissible start.
    logging.getLogger("barchan").setLevel(logging.ERROR)

    try:
        case, setup_s = setup(args.workload, args.seed)
        # Set-up is mostly imports, interpreter work like the 1D loop.  It
        # lasts about a hundred calibrations; the median of a few keeps one
        # burst of the host from setting its scale.
        calibration_s = statistics.median(calibrate(1) for _ in range(SETUP_CALIBRATIONS))
    except (ImportError, ValueError) as exc:
        print(f"perfbench: cannot set up {args.workload!r}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(repr(setup_s), repr(calibration_s))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    probe = None if args.trace else lambda: probe_setup(args.workload, args.seed)
    res = measure(case, args.seconds, bool(args.trace), probe)
    for p in dict.fromkeys(res["problems"]):
        print(f"perfbench: gate: {p}", file=sys.stderr)
    if not (res["overheads"] if args.trace else res["walls"]):
        print("perfbench: no round had its solves pass the correctness gate", file=sys.stderr)
        return 4

    setups = [(setup_s, calibration_s)] + res["setups"]
    if args.trace:
        traced = res["traced_walls"]
        fastest = min(range(len(traced)), key=traced.__getitem__)
        values = dict(res["layers"][fastest])
        values["trace.overhead_frac"] = statistics.median(res["overheads"])
        share = values["projection.share"]
        if args.workload.startswith("dune") and share < MIN_PROJECTION_SHARE:
            print(f"perfbench: projection share {share:.3f} < {MIN_PROJECTION_SHARE}", file=sys.stderr)
    else:
        ndim = len(case.u0.grid.shape)
        values = {
            "wall_s": statistics.median(
                scaled(w, c, ndim) for w, c in zip(res["walls"], res["calibrations"])
            ),
            "setup_s": statistics.median(scaled(s, c, 1) for s, c in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 3
    print(json.dumps({"env": environment(args.workload, args.seed)}))
    print(json.dumps({
        "samples": {
            "wall_s": res["walls"],
            "calibration_s": res["calibrations"],
            "traced_wall_s": res["traced_walls"],
            "setup_s": [s for s, _ in setups],
            "setup_calibration_s": [c for _, c in setups],
            "reference_checked": res["reference_checked"],
        }
    }))
    print(json.dumps({
        "correct": res["failed"] == 0 and not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
