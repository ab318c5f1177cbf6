#!/usr/bin/env python3
"""Append one benchmark entry to ``BENCH_<workload>.json``.

Usage, from the root of a checkout:

    python3 tools/record_bench.py --workload lindblad-xcheck --seeds 1 2 3 4 5 \\
        --label change [--checkout PATH]

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
in the checkout (this one unless ``--checkout`` names another, such as a
clone of the parent commit), with T the ``run_seconds`` of this
repository's ``BENCHMARK.json``, one fresh run per seed, and reads each run's
JSON result line and its printed host factor and machine line.  It then
appends one entry to ``BENCH_<workload>.json`` at the root of this
repository: the label, the checkout's commit and whether its ``src/``
differs from that commit, the sha256 of its ``src/**/*.py``, the Python and
numpy versions the runs used, the seconds and seeds, each run's metrics and
host factor, and the median of each metric over the runs.  A run that fails
or reports a failed check stops the script before it writes.

``setup_s`` times fresh interpreters importing ``oqwalk``, which compile its
sources unless ``src/oqwalk/__pycache__`` holds current bytecode, and the
first import writes that bytecode unless ``PYTHONDONTWRITEBYTECODE`` is set.
So each entry records both, as they stood before its first run:
``dont_write_bytecode`` (the variable was set and non-empty) and
``bytecode_current`` (every module of ``src/oqwalk`` but ``__main__``, which
no import loads, had a cache entry for this interpreter stamped with its
source's mtime and size).  Entries compare on
``setup_s`` only when both fields agree.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import re
import statistics
import struct
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_MACHINE = re.compile(r"^machine: .*python=(\S+) numpy=(\S+)", re.MULTILINE)
_HOST = re.compile(r"^host factor: (\S+)", re.MULTILINE)


def src_sha256(checkout: Path) -> str:
    """sha256 over the sorted relative paths and bytes of ``src/**/*.py``."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(path.relative_to(checkout).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def bytecode_current(checkout: Path) -> bool:
    """Whether this interpreter would load every module of ``src/oqwalk``
    from ``__pycache__`` rather than compile it: each has a timestamp-based
    cache entry whose header names this interpreter's magic number and the
    source's mtime and size.  ``__main__`` runs only as ``python -m oqwalk``
    and is left out."""
    for path in (checkout / "src" / "oqwalk").glob("*.py"):
        if path.name == "__main__.py":
            continue
        stat = path.stat()
        header = importlib.util.MAGIC_NUMBER + struct.pack(
            "<III", 0, int(stat.st_mtime) & 0xFFFFFFFF, stat.st_size & 0xFFFFFFFF)
        try:
            with open(importlib.util.cache_from_source(str(path)), "rb") as fh:
                if fh.read(16) != header:
                    return False
        except OSError:
            return False
    return True


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run: its metrics, host factor and
    machine versions."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"record_bench: seed {seed} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"record_bench: seed {seed} failed {result['failed']} of "
                         f"{result['attempted']} checks")
    python, numpy = _MACHINE.search(proc.stdout).groups()
    return {
        "seed": seed,
        "host_factor": float(_HOST.search(proc.stdout)[1]),
        "python": python,
        "numpy": numpy,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--label", required=True, help="what the checkout is, e.g. parent or change")
    ap.add_argument("--checkout", type=Path, default=ROOT)
    args = ap.parse_args()
    checkout = args.checkout.resolve()
    seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
                    ["run_seconds"])

    dont_write = bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    current = bytecode_current(checkout)
    runs = [run_once(checkout, args.workload, seed, seconds) for seed in args.seeds]
    names = list(runs[0]["metrics"])
    entry = {
        "label": args.label,
        "commit": git(checkout, "rev-parse", "HEAD"),
        "src_modified": bool(git(checkout, "status", "--porcelain", "--", "src")),
        "src_sha256": src_sha256(checkout),
        "python": runs[0]["python"],
        "numpy": runs[0]["numpy"],
        "dont_write_bytecode": dont_write,
        "bytecode_current": current,
        "seconds": seconds,
        "seeds": args.seeds,
        "runs": runs,
        "medians": {n: statistics.median(r["metrics"][n] for r in runs) for n in names},
    }
    path = ROOT / f"BENCH_{args.workload}.json"
    record = (json.loads(path.read_text(encoding="utf-8")) if path.exists()
              else {"workload": args.workload, "entries": []})
    record["entries"].append(entry)
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"appended {args.label} ({len(runs)} runs) to {path.name}: "
          + ", ".join(f"{n} {v:.6g}" for n, v in entry["medians"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
