#!/usr/bin/env python3
"""Record the reference values that ``workloads.check`` compares against.

Run from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

It runs every task of every workload once (circuit files from seed 0) and
writes ``perfbench/reference.json``.  Walk entries are keyed by chain length,
ω and tolerance, which is all that node populations depend on, so they hold
for the circuit files of every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oqwalk.cli  # noqa: E402

import workloads  # noqa: E402

#: Least relative distance between the step-difference and the tolerance at
#: the stopping step and the one before it, so that rounding differences
#: between circuits of the same length cannot change a step count.
STOP_MARGIN = 1e-6


def stop_margin(omega: float, depth: int, tol: float, steps: int) -> float:
    diffs = np.abs(np.diff(workloads.chain_history(omega, depth, steps), axis=0)).sum(axis=1)
    return min(abs(d - tol) / tol for d in diffs[-2:])


def main() -> int:
    workdir = ROOT / ".perfbench" / "reference"
    ref: dict = {"walk": {}, "lindblad": {}}
    for workload in workloads.WORKLOADS:
        for task in workloads.build_tasks(workload, 0, workdir):
            with contextlib.redirect_stdout(io.StringIO()):
                code = oqwalk.cli.main(list(task.argv))
            if code != 0:
                raise SystemExit(f"{task.argv} exited {code}")
            if task.out is None:
                continue
            lines = Path(task.out).read_text(encoding="utf-8").splitlines()
            if task.kind == "lindblad":
                rows = np.array([r.split(",") for r in lines[1:-2]], dtype=np.float64)
                nodes = task.depth + 1
                ref["lindblad"][task.ref_key] = {
                    "rk4_steps": round(rows[-1, 0] / workloads.LINDBLAD_DT),
                    "max_deviation_from_uniform": float(lines[-1].split(",")[0]),
                    "final_marginals": rows[-nodes:, 2].tolist(),
                }
                continue
            if task.kind == "run":
                steps, det, _fid, conv = lines[-1].split(",")
                cells = [(task.omega, steps, det, conv)]
            else:
                cells = [(float(o), s, d, c) for o, s, d, c in (r.split(",") for r in lines[1:])]
            for omega, steps, det, conv in cells:
                if omega < 1.0 and stop_margin(omega, task.depth, task.tol, int(steps)) < STOP_MARGIN:
                    raise SystemExit(f"{task.argv}: stop too close to tol at omega={omega}")
                ref["walk"][workloads.walk_key(task.depth, omega, task.tol)] = {
                    "steps": int(steps), "converged": conv == "true",
                    "final_detection": float(det),
                }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
