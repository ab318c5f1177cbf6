#!/usr/bin/env python3
"""The oqwalk benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig-sweep --seed 1 --seconds 30 --trace 0

Starts one fresh worker process that times passes over the workload's task
list (see ``workloads.py``), checks every output, and times fresh
interpreters importing ``oqwalk`` between the passes (``setup_s``).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  Everything else (machine, per-pass figures, CSV digests) is
written to ``.perfbench/<workload>/result.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run must end within this many seconds of starting.
DEADLINE_S = 175.0


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


#: ``import numpy`` in a fresh interpreter takes this long on the reference
#: host (a 2-vCPU x86-64 VM with Python 3.11 and numpy 2.4, when it is not
#: slowed by its neighbours).
NUMPY_IMPORT_REF_S = 0.060


def host_factor(report: dict) -> float:
    """How much slower than the reference host this run's host was.

    The shared host this benchmark was written on runs for minutes at a time
    up to 1.6x slower than its fast mode, which moves every time in a run
    alike.  Timed times are divided by this factor so that runs made in
    different modes compare.  It is read from fresh interpreters importing
    numpy, which run no oqwalk code, so no change to oqwalk can move it.
    """
    return min(report["numpy_import_samples_s"]) / NUMPY_IMPORT_REF_S


def fastest_pass_s(passes: list[dict]) -> float:
    """One pass made of each task's fastest time over the passes.

    The host runs at times markedly slower, never faster than its fast mode,
    so the minimum is the figure that repeats; a median of a few passes
    follows the host's mode instead.
    """
    return sum(min(ts) for ts in zip(*(p["task_s"] for p in passes)))


def end_to_end(report: dict, ok_ratio: float) -> dict[str, float]:
    passes = report["passes"]
    factor = host_factor(report)
    wall_s = fastest_pass_s(passes) / factor
    return {
        "wall_s": wall_s,
        "steps_per_s": passes[0]["steps"] / wall_s,
        "peak_rss_mb": report["peak_rss_mb"],
        "ok_ratio": ok_ratio,
        "steady_err": max(p["steady_err"] for p in passes),
        "setup_s": min(report["setup_samples_s"]) / factor,
    }


def per_layer(report: dict) -> dict[str, float]:
    traced = report["traced_passes"]
    layers = report["layers"]
    out: dict[str, float] = {}
    for name in {k for m in layers for k in m}:
        out[name] = statistics.fmean(m.get(name, 0.0) for m in layers)
    traced_s = fastest_pass_s(traced)
    plain_s = fastest_pass_s(report["passes"])
    out["cli.csv_rows"] = statistics.fmean(p["csv_rows"] for p in traced)
    out["harness.traced_pass_s"] = traced_s
    out["harness.untraced_pass_s"] = plain_s
    out["harness.trace_overhead_s"] = traced_s - plain_s
    out["harness.unaccounted_s"] = statistics.fmean(
        p["wall_s"] - m.get("harness.accounted_s", 0.0) for p, m in zip(traced, layers))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "oqwalk" / "__init__.py").is_file():
        return fail(f"no oqwalk sources under {ROOT / 'src'}; run from the root of a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    workdir = ROOT / ".perfbench" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--workdir", str(workdir)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - perf_counter()))
    if proc.returncode != 0:
        return fail(f"worker exited with {proc.returncode}")
    report = json.loads(proc.stdout.splitlines()[-1])

    runs = report["passes"] + report["traced_passes"]
    attempted = report["tasks"] * len(runs)
    failed = sum(p["failed"] for p in runs)
    if args.trace:
        values = per_layer(report)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(report, (attempted - failed) / attempted)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    report.update(metrics=metrics, workload=args.workload)
    (workdir / "result.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    mach = report["machine"]
    print(f"machine: nproc={mach['nproc']} python={mach['python']} numpy={mach['numpy']} "
          f"blas={mach['blas']} numba={mach['using_numba']} sweep_workers={mach['sweep_workers']} "
          f"blas_env={mach['blas_env']} seed={mach['seed']} commit={mach['git_commit']}")
    walls = sorted(p["wall_s"] for p in report["passes"])
    print(f"untraced pass s, as timed: fastest tasks={fastest_pass_s(report['passes']):.4f} "
          f"median={statistics.median(walls):.4f} max={walls[-1]:.4f} n={len(walls)} passes "
          f"of {report['tasks']} tasks (too few for a tail percentile below the max)")
    for key in ("setup_samples_s", "numpy_import_samples_s"):
        v = sorted(report[key])
        print(f"{key}, as timed: min={v[0]:.4f} median={statistics.median(v):.4f} "
              f"max={v[-1]:.4f} n={len(v)}")
    print(f"host factor: {host_factor(report):.4f} (wall_s, steps_per_s and setup_s are "
          f"divided by it)")
    for p in runs:
        for err in p["errors"][:5]:
            print(f"FAILED: {err}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
