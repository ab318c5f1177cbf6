"""Workloads of the oqwalk benchmark: task lists, the seeded circuit-file
generator, and the checks that every task's output must pass.

A task is one call to ``oqwalk.cli.main(argv)``.  The seed picks the task
order and, for ``circuit-files``, the gate content and input bits of the
generated circuits; the program receives only the generated argv and files.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oqwalk.walk as wk

WORKLOADS = ("fig-sweep", "lindblad-xcheck", "circuit-files")

#: Slice count T of each built-in circuit (chain nodes 0..T).
BUILTIN_DEPTH = {"toffoli": 13, "qft3": 9, "qft4": 16}
#: The CLI's default convergence tolerance per built-in.
BUILTIN_TOL = {"toffoli": 1e-7, "qft3": 1e-7, "qft4": 1e-5}
SWEEP_GRID = "0.5:0.95:0.05"
LINDBLAD_DT = 0.4
#: (circuit, --stop-tol, extra flags) of the ``lindblad-xcheck`` tasks.  The
#: toffoli run stops at 3e-3 (92 RK4 steps, 3-5 s) rather than at 2e-6 (457
#: steps, 16-20 s), so that a 40 s run holds several passes and the fastest
#: of them can be taken; the time per RK4 step is the same.
LINDBLAD_RUNS = (("toffoli", "3e-3", ()), ("qft3", "2e-6", ("--include-reset",)))

#: (qubits, slices) of the generated circuit files, fixed per file position.
#: Node populations of a chain walk do not depend on the gates, so with the
#: shapes fixed, step counts and steady-state errors are the same for every
#: seed and only the gate content varies.
CIRCUIT_SHAPES = ((4, 24), (4, 36), (4, 48), (5, 24), (5, 28), (5, 32))
CIRCUIT_RUN_TOL = 1e-5

_SINGLE_GATES = ("H", "X", "S", "T", "R")
_PHASES = ("pi", "pi/2", "pi/4", "-pi/4", "pi/8", "-pi/2", "0.3", "-1.1")

# Stated tolerances of the output checks.
#: Float summary columns against the values recorded from the seed.
SUMMARY_TOL = 1e-9
#: Each history row of ``run`` against the classical birth-death chain.
HISTORY_TOL = 1e-10
#: ``final_fidelity`` against 1 (the target is the ``circuit_product`` oracle).
FIDELITY_TOL = 1e-12
#: ``lindblad`` node marginals: each sample sums to 1, final row vs the seed.
LINDBLAD_TOL = 1e-9


@dataclass(frozen=True)
class Task:
    """One ``oqw`` invocation and what its output is checked against."""

    kind: str  # validate | run | sweep | lindblad
    argv: tuple[str, ...]
    out: str | None  # CSV path; None when the output goes to stdout
    depth: int
    tol: float = 0.0
    omega: float = 0.0  # run only
    ref_key: str = ""  # lindblad only


def walk_key(depth: int, omega: float, tol: float) -> str:
    return f"T={depth} omega={omega!r} tol={tol!r}"


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def random_circuit_text(rng: random.Random, qubits: int, slices: int) -> str:
    """A circuit in the text format, each slice 1-3 disjoint random gates."""
    lines = [f"# generated: {qubits} qubits, {slices} slices", f"qubits {qubits}"]
    for _ in range(slices):
        free = list(range(1, qubits + 1))
        rng.shuffle(free)
        gates = []
        for _ in range(rng.randint(1, 3)):
            if len(free) >= 2 and rng.random() < 0.4:
                a, b = free.pop(), free.pop()
                if rng.random() < 0.5:
                    gates.append(f"CNOT {a} {b}")
                else:
                    gates.append(f"CP {a} {b} {rng.choice(_PHASES)}")
            elif free:
                gates.append(f"{rng.choice(_SINGLE_GATES)} {free.pop()}")
        lines.append(" ; ".join(gates))
    return "\n".join(lines) + "\n"


def generate_circuit_files(seed: int) -> list[tuple[str, str]]:
    """``(input bits, circuit text)`` for each entry of CIRCUIT_SHAPES."""
    rng = random.Random(f"oqwalk-circuit-files-{seed}")
    out = []
    for qubits, slices in CIRCUIT_SHAPES:
        text = random_circuit_text(rng, qubits, slices)
        bits = "".join(rng.choice("01") for _ in range(qubits))
        out.append((bits, text))
    return out


def _walk_tasks(circuit: str, depth: int, tol: float, outdir: Path) -> list[Task]:
    return [
        Task("sweep", ("sweep", "--circuit", circuit, "--omega", SWEEP_GRID,
                       "--out", str(outdir / f"{circuit}-sweep.csv")),
             str(outdir / f"{circuit}-sweep.csv"), depth, tol),
        Task("run", ("run", "--circuit", circuit, "--omega", "0.5",
                     "--out", str(outdir / f"{circuit}-run.csv")),
             str(outdir / f"{circuit}-run.csv"), depth, tol, 0.5),
    ]


def build_tasks(workload: str, seed: int, workdir: Path) -> list[Task]:
    """The task list of one pass; writes generated circuit files into workdir."""
    outdir = workdir / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"oqwalk-{workload}-{seed}")
    if workload == "fig-sweep":
        tasks = []
        for name, depth in BUILTIN_DEPTH.items():
            tasks += _walk_tasks(name, depth, BUILTIN_TOL[name], outdir)
        rng.shuffle(tasks)
        return tasks
    if workload == "lindblad-xcheck":
        tasks = []
        for name, stop_tol, extra in LINDBLAD_RUNS:
            key = name + "".join(extra)
            out = str(outdir / f"{name}-lindblad.csv")
            argv = ("lindblad", "--circuit", name, "--dt", repr(LINDBLAD_DT),
                    "--stop-tol", stop_tol, "--out", out, *extra)
            tasks.append(Task("lindblad", argv, out, BUILTIN_DEPTH[name], ref_key=key))
        rng.shuffle(tasks)
        return tasks
    if workload == "circuit-files":
        cdir = workdir / "circuits"
        cdir.mkdir(parents=True, exist_ok=True)
        tasks = []
        for i, (bits, text) in enumerate(generate_circuit_files(seed)):
            path = cdir / f"c{i}.txt"
            path.write_text(text, encoding="utf-8")
            depth = CIRCUIT_SHAPES[i][1]
            tasks.append(Task("validate", ("validate", "--circuit", str(path)), None, depth))
            for omega, tol in (("1.0", None), ("0.9", CIRCUIT_RUN_TOL)):
                out = str(outdir / f"c{i}-run-{omega}.csv")
                argv = ["run", "--circuit", str(path), "--omega", omega,
                        "--input", bits, "--out", out]
                if tol is not None:
                    argv += ["--tol", repr(tol)]
                tasks.append(Task("run", tuple(argv), out, depth,
                                  tol if tol is not None else 1e-7, float(omega)))
        return tasks
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def warmup_tasks(workdir: Path) -> list[Task]:
    """Cheap calls through every subcommand, run untimed before the passes."""
    out = str(workdir / "out" / "warmup.csv")
    argvs = [
        ("validate", "--circuit", "toffoli"),
        ("run", "--circuit", "toffoli", "--omega", "1.0", "--out", out),
        ("sweep", "--circuit", "toffoli", "--omega", "0.9:0.95:0.05", "--out", out),
        ("lindblad", "--circuit", "toffoli", "--dt", "0.4", "--max-time", "2", "--out", out),
    ]
    return [Task(a[0], a, None, 0) for a in argvs]


def chain_history(omega: float, depth: int, steps: int) -> np.ndarray:
    """Node populations of the classical birth-death chain for steps 0..steps."""
    params = wk.ChainParams(omega)
    p = np.zeros(depth + 1)
    p[0] = 1.0
    rows = [p]
    for _ in range(steps):
        p = wk.classical_marginal_step(params, depth, p)
        rows.append(p)
    return np.array(rows)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one task produced, and every way in which it was wrong."""

    errors: list[str]
    steps: int = 0  # solver iterations: walk steps or RK4 steps
    steady_err: float = 0.0
    csv_rows: int = 0
    sha256: str = ""


def _walk_summary_errors(task: Task, omega: float, steps: int, det: float,
                         converged: bool, ref: dict) -> tuple[list[str], float]:
    errors = []
    where = f"{' '.join(task.argv[:3])} omega={omega!r}"
    exp = ref["walk"].get(walk_key(task.depth, omega, task.tol))
    if exp is None:
        errors.append(f"{where}: no recorded reference")
    else:
        if steps != exp["steps"] or converged != exp["converged"]:
            errors.append(f"{where}: steps/converged {steps}/{converged}, "
                          f"recorded {exp['steps']}/{exp['converged']}")
        if not abs(det - exp["final_detection"]) <= SUMMARY_TOL:
            errors.append(f"{where}: final_detection {det!r}, recorded {exp['final_detection']!r}")
    if omega == 1.0:
        if steps != task.depth + 1:
            errors.append(f"{where}: {steps} steps at omega=1, expected T+1={task.depth + 1}")
        steady = 1.0 - det
    else:
        steady = abs(det - wk.analytic_chain_steady(wk.ChainParams(omega), task.depth)[-1])
    return errors, steady


def _check_run(task: Task, lines: list[str], ref: dict, out: Outcome) -> None:
    split = lines.index("steps_to_converge,final_detection,final_fidelity,converged")
    if lines[0] != "step,node,probability" or split != len(lines) - 2:
        out.errors.append("run: malformed CSV layout")
        return
    steps_s, det_s, fid_s, conv_s = lines[-1].split(",")
    steps, det, fid = int(steps_s), float(det_s), float(fid_s)
    errs, out.steady_err = _walk_summary_errors(task, task.omega, steps, det,
                                                conv_s == "true", ref)
    out.errors += errs
    out.steps = steps
    if not abs(fid - 1.0) <= FIDELITY_TOL:
        out.errors.append(f"run: final_fidelity {fid!r} differs from 1 by more than {FIDELITY_TOL}")
    rows = np.array([r.split(",") for r in lines[1:split]], dtype=np.float64)
    nodes = task.depth + 1
    expect_idx = np.stack(np.divmod(np.arange((steps + 1) * nodes), nodes), axis=1)
    if rows.shape != (len(expect_idx), 3) or not np.array_equal(rows[:, :2], expect_idx):
        out.errors.append("run: history rows are not steps 0..n by nodes 0..T")
        return
    history = rows[:, 2].reshape(steps + 1, nodes)
    dev = np.abs(history - chain_history(task.omega, task.depth, steps)).max()
    if not dev <= HISTORY_TOL:
        out.errors.append(f"run: history differs from the classical chain by {dev:.3g}")
    if history[-1, -1] != det:
        out.errors.append("run: final_detection is not the last history entry")


def _check_sweep(task: Task, lines: list[str], ref: dict, out: Outcome) -> None:
    if lines[0] != "omega,steps_to_converge,final_detection,converged" or len(lines) != 11:
        out.errors.append("sweep: malformed CSV layout")
        return
    for line in lines[1:]:
        omega_s, steps_s, det_s, conv_s = line.split(",")
        errs, steady = _walk_summary_errors(task, float(omega_s), int(steps_s),
                                            float(det_s), conv_s == "true", ref)
        out.errors += errs
        out.steps += int(steps_s)
        out.steady_err = max(out.steady_err, steady)


def _check_lindblad(task: Task, lines: list[str], ref: dict, out: Outcome) -> None:
    exp = ref["lindblad"][task.ref_key]
    if lines[0] != "time,node,probability" or lines[-2] != "max_deviation_from_uniform,stationary":
        out.errors.append("lindblad: malformed CSV layout")
        return
    dev_s, stat_s = lines[-1].split(",")
    if stat_s != "true":
        out.errors.append("lindblad: did not end stationary=true")
    rows = np.array([r.split(",") for r in lines[1:-2]], dtype=np.float64)
    nodes = task.depth + 1
    if rows.shape[0] % nodes or not np.array_equal(rows[:, 1], np.tile(np.arange(nodes), rows.shape[0] // nodes)):
        out.errors.append("lindblad: sample rows are not blocks of nodes 0..T")
        return
    samples = rows[:, 2].reshape(-1, nodes)
    drift = np.abs(samples.sum(axis=1) - 1.0).max()
    if not drift <= LINDBLAD_TOL:
        out.errors.append(f"lindblad: a sample's populations sum to 1 only within {drift:.3g}")
    final_time = rows[-1, 0]
    out.steps = round(final_time / LINDBLAD_DT)
    if out.steps != exp["rk4_steps"]:
        out.errors.append(f"lindblad: {out.steps} RK4 steps, recorded {exp['rk4_steps']}")
    dev = float(dev_s)
    if not abs(dev - exp["max_deviation_from_uniform"]) <= LINDBLAD_TOL:
        out.errors.append(f"lindblad: max_deviation_from_uniform {dev!r}, "
                          f"recorded {exp['max_deviation_from_uniform']!r}")
    gap = np.abs(samples[-1] - np.array(exp["final_marginals"])).max()
    if not gap <= LINDBLAD_TOL:
        out.errors.append(f"lindblad: final marginals differ from the recorded ones by {gap:.3g}")
    if "--include-reset" not in task.argv:
        # without reset jumps the stationary state is uniform over the registers
        out.steady_err = dev


def _check_validate(task: Task, text: str, out: Outcome) -> None:
    found = re.findall(r"residual[^:]*: (\S+)", text)
    lines = text.splitlines()
    if (len(found) != 2 or lines[-1:] != ["OK"]
            or f"{task.depth} slices" not in lines[0]
            or not all(float(v) <= 1e-10 for v in found)):
        out.errors.append(f"validate: unexpected report {text!r}")


def check(task: Task, code, stdout: str, ref: dict) -> Outcome:
    """Check one task's exit code and output; never raises."""
    out = Outcome(errors=[])
    if code != 0:
        out.errors.append(f"{' '.join(task.argv[:3])}: exit {code!r}")
        return out
    try:
        text = Path(task.out).read_text(encoding="utf-8") if task.out else stdout
        out.sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()
        lines = text.splitlines()
        out.csv_rows = len(lines) if task.out else 0
        if task.kind == "run":
            _check_run(task, lines, ref, out)
        elif task.kind == "sweep":
            _check_sweep(task, lines, ref, out)
        elif task.kind == "lindblad":
            _check_lindblad(task, lines, ref, out)
        else:
            _check_validate(task, text, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        out.errors.append(f"{' '.join(task.argv[:3])}: unreadable output ({exc!r})")
    return out
