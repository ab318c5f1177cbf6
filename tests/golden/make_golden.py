"""Record the CLI's golden outputs: exit code, output and stderr per argv.

Run from the root of a checkout, to rewrite ``tests/golden/golden.json``:

    PYTHONPATH=src python tests/golden/make_golden.py

Each case runs ``oqwalk.cli.main`` in-process, in this directory (so
``w5.circ`` is a relative path), and records the exit code, the output
(stdout) and stderr with their sha256.  The file also records the platform
it was made on (numpy, its BLAS, the machine and numpy's CPU features):
``tests/test_golden.py`` compares digests on that platform, and on any
other the numbers parsed from the output and stderr within
``RELATIVE_TOL`` (relative to max(|x|, 1)), and the text between them and
the exit codes exactly.

A change that moves output bytes on purpose reruns this script and lists
every changed case, with its reason, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

#: Tolerance of a number x, relative to max(|x|, 1), on a platform other than
#: the recorded one.
RELATIVE_TOL = 1e-9

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")

#: lindblad options that keep the trajectory short: a loose stop and sparse samples.
_SHORT = ("--dt", "0.4", "--record-every", "8")

CASES = [
    # validate: every built-in, three omegas, one file
    ["validate", "--circuit", "toffoli"],
    ["validate", "--circuit", "qft3", "--omega", "0.9"],
    ["validate", "--circuit", "qft4", "--omega", "1.0"],
    ["validate", "--circuit", "w5.circ"],
    # run: converged at 0.5, 0.9 and 1.0, at a tight tol, and out of steps
    ["run", "--circuit", "qft3", "--tol", "1e-3"],
    ["run", "--circuit", "toffoli", "--omega", "0.9"],
    ["run", "--circuit", "qft4", "--omega", "1.0"],
    ["run", "--circuit", "qft3", "--omega", "0.9", "--tol", "1e-12"],
    ["run", "--circuit", "w5.circ", "--omega", "0.8", "--input", "10110"],
    ["run", "--circuit", "toffoli", "--max-steps", "7"],
    # sweep: grids on every built-in, one at a tight tol
    ["sweep", "--circuit", "toffoli", "--omega", "0.5:1.0:0.1"],
    ["sweep", "--circuit", "qft3", "--omega", "0.5:1:0.05", "--tol", "1e-12"],
    ["sweep", "--circuit", "qft4", "--omega", "0.55:0.95:0.2"],
    # lindblad with and without reset, on inputs the resets act on
    ["lindblad", "--circuit", "qft3", "--input", "110", *_SHORT, "--stop-tol", "1e-6"],
    ["lindblad", "--circuit", "qft3", "--input", "110", *_SHORT, "--stop-tol", "1e-6",
     "--include-reset"],
    ["lindblad", "--circuit", "toffoli", *_SHORT, "--stop-tol", "1e-5"],
    ["lindblad", "--circuit", "toffoli", *_SHORT, "--stop-tol", "1e-5", "--include-reset"],
    ["lindblad", "--circuit", "qft4", "--input", "1011", *_SHORT, "--max-time", "40",
     "--include-reset"],
    ["lindblad", "--circuit", "w5.circ", "--input", "10110", *_SHORT, "--max-time", "24",
     "--include-reset"],
    ["lindblad", "--circuit", "qft3", "--input", "110", "--dt", "0.75", "--include-reset"],
    # input errors
    ["validate", "--circuit", "missing.circ"],
    ["run", "--circuit", "toffoli", "--omega", "nan"],
    ["run", "--circuit", "qft3", "--input", "11"],
    ["sweep", "--circuit", "qft3", "--omega", "0:1:0.1"],
    ["lindblad", "--circuit", "qft3", "--dt", "-1"],
    ["lindblad", "--circuit", "qft3", "--max-time", "inf"],
]


def platform_key() -> dict:
    """What the output bits depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy before 1.26 only prints its configuration
        blas = "unknown"
    core = getattr(np, "_core", None) or np.core
    features = getattr(core._multiarray_umath, "__cpu_features__", {})
    return {
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "cpu_features": sorted(k for k, on in features.items() if on),
    }


def capture(argv: list[str]) -> dict:
    """Run one case in this directory and record what it printed."""
    from oqwalk.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    stdout, stderr = out.getvalue(), err.getvalue()
    return {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(stderr.encode()).hexdigest(),
        "stdout": stdout,
        "stderr": stderr,
    }


def split_numbers(text: str) -> tuple[list[str], list[float]]:
    """The text between the numbers, and the numbers."""
    return _NUMBER.split(text), [float(x) for x in _NUMBER.findall(text)]


def main() -> None:
    record = {"platform": platform_key(), "relative_tol": RELATIVE_TOL,
              "cases": [capture(argv) for argv in CASES]}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    main()
