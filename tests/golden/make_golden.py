"""Record the CLI's golden outputs: exit code, output and stderr per argv.

Run from the root of a checkout, to rewrite ``tests/golden/golden.json``:

    PYTHONPATH=src python tests/golden/make_golden.py

Each case runs ``oqwalk.cli.main`` in-process, in this directory (so
``w5.circ`` and the other circuit files are relative paths), and records the exit code, the output
(stdout) and stderr with their sha256.  The file also records the platform
it was made on (numpy, its BLAS, the machine and numpy's CPU features):
``tests/test_golden.py`` compares digests on that platform, and on any
other the numbers parsed from the output and stderr within
``RELATIVE_TOL`` (relative to max(|x|, 1)), and the text between them and
the exit codes exactly.

When it rewrites an existing file, the script prints each case whose
record changed: its argv, how many numbers moved and the largest move (NaN
when a number becomes NaN or stops being one), the two counts of an output
that gained or lost numbers, whose numbers are not paired, and whether the
exit code or the text between the numbers changed.  A change that moves
output bytes on purpose reruns this script and lists every changed case,
with its reason, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
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
    # run at the defaults (ω 0.5, 586 steps); out of steps after 64 and 65
    ["run", "--circuit", "toffoli"],
    ["run", "--circuit", "toffoli", "--max-steps", "64"],
    ["run", "--circuit", "toffoli", "--max-steps", "65"],
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
    # all-ones inputs: every reset move carries population, and one run diverges
    ["lindblad", "--circuit", "qft4", "--input", "1111", *_SHORT, "--max-time", "40",
     "--include-reset"],
    ["lindblad", "--circuit", "qft3", "--input", "111", "--dt", "0.75", "--include-reset"],
    # a dt so large that the first step overflows
    ["lindblad", "--circuit", "toffoli", "--dt", "1e300"],
    # d = 128: a seeded seven-qubit file
    ["run", "--circuit", "seeded7.circ", "--omega", "0.8", "--input", "1011001"],
    ["lindblad", "--circuit", "seeded7.circ", "--input", "1011001", *_SHORT,
     "--max-time", "8", "--include-reset"],
    # d = 128 from all ones: every reset move carries population, below the RK4 limit 0.341
    ["lindblad", "--circuit", "seeded7.circ", "--input", "1111111", "--include-reset",
     "--dt", "0.25", "--record-every", "8", "--max-time", "16"],
    # one slice, two nodes: each step's and each sample's rows are two lines
    ["run", "--circuit", "one.circ"],
    ["lindblad", "--circuit", "one.circ", *_SHORT, "--include-reset"],
    # input errors
    ["validate", "--circuit", "missing.circ"],
    ["run", "--circuit", "toffoli", "--omega", "nan"],
    ["run", "--circuit", "qft3", "--input", "11"],
    ["sweep", "--circuit", "qft3", "--omega", "0:1:0.1"],
    ["lindblad", "--circuit", "qft3", "--dt", "-1"],
    ["lindblad", "--circuit", "qft3", "--max-time", "inf"],
    ["run", "--circuit", "toffoli", "--max-steps", "nan"],
    # slice checks of the parser: a qubit used twice, a qubit beyond the count
    ["validate", "--circuit", "overlap.circ"],
    ["run", "--circuit", "beyond.circ"],
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


def describe_change(old: dict | None, new: dict) -> str | None:
    """One line on how a case's record changed, or None if it did not."""
    argv = " ".join(new["argv"])
    if old is None:
        return f"new: {argv}"
    if all(old[k] == new[k] for k in ("exit", "stdout", "stderr")):
        return None
    moves, counts, text_changed = [], [], False
    for key in ("stdout", "stderr"):
        old_text, old_nums = split_numbers(old[key])
        new_text, new_nums = split_numbers(new[key])
        text_changed |= old_text != new_text
        if len(old_nums) != len(new_nums):
            counts.append(f"{key} {len(old_nums)} -> {len(new_nums)} numbers")
            continue
        moves += [abs(a - b) for a, b in zip(old_nums, new_nums)
                  if a != b and not (math.isnan(a) and math.isnan(b))]
    # a number that becomes NaN, or stops being one, moves by NaN
    largest = math.nan if any(map(math.isnan, moves)) else max(moves, default=0.0)
    line = "; ".join([f"changed: {argv}: {len(moves)} numbers moved, "
                      f"largest move {largest:.3g}", *counts])
    if old["exit"] != new["exit"]:
        line += f"; exit {old['exit']} -> {new['exit']}"
    if text_changed:
        line += "; the text between the numbers changed"
    return line


def main() -> None:
    record = {"platform": platform_key(), "relative_tol": RELATIVE_TOL,
              "cases": [capture(argv) for argv in CASES]}
    old = {}
    if GOLDEN.exists():
        old_cases = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]
        old = {tuple(case["argv"]): case for case in old_cases}
    for case in record["cases"]:
        line = describe_change(old.get(tuple(case["argv"])), case)
        if line:
            print(line)
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    main()
