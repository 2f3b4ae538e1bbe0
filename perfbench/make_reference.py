"""Regenerate the committed reference outputs in ``reference/``.

    python3 perfbench/make_reference.py

Run only on the code the references are meant to pin (they were made with
the initial solver); a solver change is judged against them, not by them.
"""

from __future__ import annotations

import numpy as np

import gate
import workloads

REFERENCE_SEEDS = 16  # references for seeds 0..15


def main() -> None:
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        arrays = {}
        for seed in range(REFERENCE_SEEDS):
            case = workloads.generate(name, seed)
            out = workloads.solve(case)
            verdict = gate.check(case, out, None)
            if not verdict.ok:
                raise SystemExit(f"{name} seed {seed} fails its invariants: {verdict.problems}")
            arrays.update({f"s{seed}.{k}": v for k, v in gate.reference_entry(case, out).items()})
        np.savez_compressed(gate.REFERENCE_DIR / f"{name}.npz", **arrays)
        print(name, "done", flush=True)


if __name__ == "__main__":
    main()
