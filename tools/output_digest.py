"""One SHA-256 per benchmark workload over everything its solves return.

    python3 tools/output_digest.py ROOT [--seeds N]

Runs ``workloads.solve`` from ``ROOT/perfbench``, on the package in
``ROOT/src``, for seeds 0 to N - 1 of every workload (N is 16 unless
given: seeds 0-15, the seeds that CI and every bitwise claim use), and
prints one line per workload: its name, the digest of its outputs over
those seeds and the total projection iterations of its runs over those
seeds (the start projections included: every ``iterations`` that
``stepper.resolvent_step`` returns), so a change in solve counts shows
even where the digest alone would only say that the outputs differ.
The digest walks the outputs whole: on every workload the trajectory's
snapshot times, fields and multipliers and every ``StepDiagnostics``
field (with the run's inputs and failure), and on ``audit1d`` also the
twin run, the test functions, the VI records and the complementarity and
contraction series.  Each float enters by its exact ``repr`` and each
array by its dtype, shape and bytes, so two checkouts print equal digests
only when their outputs are bitwise equal.  Standard library and numpy
only.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np


def feed(h, obj) -> None:
    """Add ``obj`` to the hash ``h``: a dataclass field by field, a list or
    tuple entry by entry, an array or numpy scalar by dtype, shape and
    bytes, and None, a bool, an int, a float or a str by its ``repr``.
    Raises ``TypeError`` on anything else, whose ``repr`` may not be
    reproducible."""
    if dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            feed(h, item)
    elif isinstance(obj, (np.ndarray, np.generic)):
        a = np.ascontiguousarray(obj)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    elif obj is None or isinstance(obj, (bool, int, float, str)):
        h.update(repr(obj).encode())
    else:
        raise TypeError(f"no digest for a {type(obj).__name__}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path, help="checkout whose perfbench/ and src/ to run")
    parser.add_argument("--seeds", type=int, default=16, help="run seeds 0 to N - 1")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import barchan
    import workloads
    from barchan import stepper

    if not Path(barchan.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"barchan was imported from {barchan.__file__}, not from {root / 'src'}")
    iterations = 0
    resolvent_step = stepper.resolvent_step

    def counted(*a, **kw):
        nonlocal iterations
        res = resolvent_step(*a, **kw)
        iterations += res.iterations
        return res

    stepper.resolvent_step = counted
    for name in workloads.WORKLOADS:
        h = hashlib.sha256()
        iterations = 0
        for seed in range(args.seeds):
            feed(h, workloads.solve(workloads.generate(name, seed)))
        print(f"{name} {h.hexdigest()} {iterations}", flush=True)


if __name__ == "__main__":
    main()
