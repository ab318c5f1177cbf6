"""One benchmark run in a fresh process: warm up, then time passes over a
workload's task list in a closed loop until the time budget is spent.  Before
and between the passes it times fresh interpreters importing ``oqwalk``
(``setup_s``) and importing only ``numpy`` (the host-speed reference).

Started by ``run.py``; prints one JSON object with the raw per-pass figures.
With ``--trace 1`` it alternates untraced and traced passes, so the tracing
overhead can be read off, and writes the traced spans to ``trace.tsv``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import oqwalk  # noqa: E402
import oqwalk.cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Pairs of fresh interpreters timed before the first pass and after each
#: pass, so that the samples are spread through the run: one imports
#: ``oqwalk`` and ``oqwalk.cli`` (``setup_s``), the other only ``numpy``, the
#: reference that reads the host's speed (see ``run.py``).
IMPORT_PAIRS_PER_PASS = 3
SETUP_CODE = ("import time; t = time.perf_counter(); import oqwalk, oqwalk.cli; "
              "print(time.perf_counter() - t)")
NUMPY_CODE = ("import time; t = time.perf_counter(); import numpy; "
              "print(time.perf_counter() - t)")
#: Pause before timing imports, long enough for BLAS threads of the pass just
#: run to stop spinning and free the cores.
IDLE_S = 0.5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_task(task: workloads.Task, tracer: tracing.Tracer | None):
    """Call the CLI once; returns (exit code or exception text, stdout)."""
    buf = io.StringIO()
    if tracer is not None:
        tracer.open(tracing.TASK_SPAN)
    try:
        with contextlib.redirect_stdout(buf):
            code = oqwalk.cli.main(list(task.argv))
    except SystemExit as exc:  # argparse rejected the argv
        code = f"SystemExit({exc.code!r})"
    except Exception as exc:  # noqa: BLE001 - any raise is a failed task
        code = repr(exc)
    finally:
        if tracer is not None:
            tracer.close()
    return code, buf.getvalue()


def run_pass(tasks, ref, tracer, pass_no: int) -> dict:
    """Time one pass over the task list, then check every output."""
    results, task_s = [], []
    start = perf_counter()
    for task_no, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = (pass_no, task_no)
        began = perf_counter()
        results.append(run_task(task, tracer))
        task_s.append(perf_counter() - began)
    wall = perf_counter() - start
    outcomes = [workloads.check(t, code, out, ref) for t, (code, out) in zip(tasks, results)]
    return {
        "wall_s": wall,
        "task_s": task_s,
        "steps": sum(o.steps for o in outcomes),
        "failed": sum(1 for o in outcomes if o.errors),
        "errors": [e for o in outcomes for e in o.errors],
        "steady_err": max(o.steady_err for o in outcomes),
        "csv_rows": sum(o.csv_rows for o in outcomes),
        "sha256": {" ".join(t.argv[:3]): o.sha256 for t, o in zip(tasks, outcomes)},
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "oqwalk").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def time_import(code: str) -> float:
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import failed:\n{proc.stderr}")
    return float(proc.stdout)


def import_samples(setup: list[float], numpy_ref: list[float]) -> None:
    """Append IMPORT_PAIRS_PER_PASS timings of each import, alternating."""
    sleep(IDLE_S)
    for _ in range(IMPORT_PAIRS_PER_PASS):
        setup.append(time_import(SETUP_CODE))
        numpy_ref.append(time_import(NUMPY_CODE))


def machine(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "using_numba": bool(oqwalk.USING_NUMBA),
        "sweep_workers": oqwalk.cli._sweep_workers(),
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    if not Path(oqwalk.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"oqwalk imported from {oqwalk.__file__}, not from this checkout", file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    tasks = workloads.build_tasks(args.workload, args.seed, workdir)
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    for task in workloads.warmup_tasks(workdir):
        run_task(task, None)

    tracer = tracing.Tracer() if args.trace else None
    plain, traced, wrapped = [], [], {}
    budget_start = perf_counter()
    setup, numpy_ref = [], []
    import_samples(setup, numpy_ref)
    pass_no = 0
    while True:
        use_trace = tracer is not None and pass_no % 2 == 1
        installed = tracing.Installed(tracer) if use_trace else None
        try:
            result = run_pass(tasks, ref, tracer if use_trace else None, pass_no)
        finally:
            if installed is not None:
                installed.remove()
                wrapped = installed.wrapped
        (traced if use_trace else plain).append(result)
        pass_no += 1
        import_samples(setup, numpy_ref)
        elapsed = perf_counter() - budget_start
        typical = elapsed / pass_no
        done = elapsed + typical > args.seconds
        if done and (tracer is None or traced):
            break

    report = {
        "machine": machine(args.seed),
        "tasks": len(tasks),
        "passes": plain,
        "traced_passes": traced,
        "setup_samples_s": setup,
        "numpy_import_samples_s": numpy_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.write(workdir / "trace.tsv")
        per_pass = tracing.summarize(tracer.spans, tracer.counts,
                                     oqwalk.cli._sweep_workers(), tracer.main_thread)
        report["layers"] = [per_pass.get(p, {}) for p in range(1, pass_no, 2)]
        report["wrapped_aliases"] = wrapped
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
