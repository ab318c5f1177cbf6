"""Command-line front end.

Subcommands: ``validate`` (circuit and walk normalization report), ``run``
(single walk to steady state, per-step CSV), ``sweep`` (ω grid, one summary
row per value), ``lindblad`` (continuous-time cross-check).  Each subcommand
accepts only the options it reads: ``sweep`` reads only the circuit's
depth, so it takes no ``--input``, and ``lindblad`` integrates the unit-rate
master equation, so it takes no ω, ``--tol`` or ``--max-steps``.  All numeric
CSV fields are printed with 17 significant digits and LF line endings, so
output is byte-stable for a fixed configuration.

The walk engines return residuals, populations and states, and the judgements
are made here: ``validate`` compares residuals with ``TOL``, and ``run``
computes the fidelity of the last node's state to the circuit's output.

The parser is built on the first ``main`` call, never at import, and every
later call in the process reuses it, so ``main`` may be called many times in
one process.  The parser holds no command function: ``main`` looks up
``cmd_<subcommand>`` by name when it runs, so a replaced ``cmd_*`` takes
effect after the first call too.

Importing the module loads only what every command runs.  ``lindblad``
imports its module when it runs, and ``sweep`` the pool's, through the
first access to ``ThreadPoolExecutor`` (the module ``__getattr__``).

Exit codes: 0 success, 1 numerical non-convergence, 2 input error (a
command line that argparse rejects included), whose stderr is one
``error:`` line.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import walk as wk
from .circuits import (
    BUILTIN_CIRCUITS,
    Circuit,
    basis_state,
    circuit_product,
    circuit_unitaries,
    parse_circuit,
)
from .config import TOL
from .errors import DomainError
from .linalg import frobenius

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_INPUT = 2

#: Largest ``start:stop:step`` grid; each point is one walk run.
MAX_GRID_POINTS = 10_000

_DEFAULT_INPUTS = {"toffoli": "110"}
_DEFAULT_TOLS = {"qft4": 1e-5}


def fmt(x: float) -> str:
    return f"{x:.17g}"


def _decimal(x: float) -> tuple[int, int]:
    """The shortest decimal that reads back as x, as (m, e) with x = m·10^e."""
    mantissa, _, exp = repr(x).partition("e")
    whole, _, frac = mantissa.partition(".")
    return int(whole + frac), int(exp or 0) - len(frac)


def parse_omega_spec(spec: str) -> list[float]:
    """A single value, or an inclusive ``start:stop:step`` grid, ascending.

    Grid points are start + k·step ≤ stop, computed exactly on the decimals
    of the three values (their literals, up to 15 significant digits) and
    rounded once to a float, so each point is the float of the decimal it
    names.
    """
    parts = spec.split(":")
    if len(parts) == 1:
        values = [float(spec)]
    elif len(parts) == 3:
        start, stop, step_size = (float(p) for p in parts)
        if not step_size > 0:
            raise ValueError("grid step must be positive")
        if not np.isfinite(stop - start):
            raise ValueError("grid bounds must be finite")
        # integers in units of 10^e: exact, and n is checked before the list is built
        (a, ea), (b, eb), (s, es) = (_decimal(v) for v in (start, stop, step_size))
        e = min(ea, eb, es, 0)
        a, b, s = a * 10 ** (ea - e), b * 10 ** (eb - e), s * 10 ** (es - e)
        n = (b - a) // s
        if n >= MAX_GRID_POINTS:
            raise ValueError(
                f"omega grid {spec!r} is too fine; at most {MAX_GRID_POINTS} points"
            )
        values = [(a + k * s) / 10**-e for k in range(n + 1)]
    else:
        raise ValueError(f"bad omega spec {spec!r}; use x or start:stop:step")
    if not values:
        raise ValueError(f"omega grid {spec!r} is empty")
    for v in values:
        if not (0.0 < v <= 1.0):
            raise ValueError(f"omega {v} outside (0, 1]")
    return values


def _single_omega(spec: str) -> float:
    omegas = parse_omega_spec(spec)
    if len(omegas) != 1:
        raise DomainError(f"omega must be a single value, got grid {spec!r}; use sweep")
    return omegas[0]


def load_circuit(name_or_path: str) -> Circuit:
    """Built-in name, otherwise a path to a circuit text file."""
    if name_or_path in BUILTIN_CIRCUITS:
        return BUILTIN_CIRCUITS[name_or_path]()
    path = Path(name_or_path)
    if not path.exists():
        raise FileNotFoundError(
            f"{name_or_path!r} is not a built-in "
            f"({', '.join(sorted(BUILTIN_CIRCUITS))}) and no such file exists"
        )
    return parse_circuit(path.read_text(encoding="utf-8"), name=path.stem)


def _input_state(args: argparse.Namespace, circuit: Circuit) -> np.ndarray:
    bits = args.input_bits
    if bits is None:
        bits = _DEFAULT_INPUTS.get(args.circuit, "0" * circuit.num_qubits)
    return basis_state(circuit.num_qubits, bits)


def _resolve_tol(circuit: str, tol: float | None) -> float:
    return _DEFAULT_TOLS.get(circuit, 1e-7) if tol is None else tol


def _node_csv(header: str, labels, rows) -> str:
    """A per-node CSV: the header line, then one line ``label,node,value``
    per label and node, with the label's row of values, in 17 significant
    digits.  A label's lines are one ``%`` template over the nodes, filled
    from its row's tuple, with the label spliced in after each newline."""
    template = "".join(f"\n{node},%.17g" for node in range(len(rows[0])))
    lines = [
        (template % tuple(row)).replace("\n", f"\n{label},")
        for label, row in zip(labels, rows)
    ]
    return header + "".join(lines) + "\n"


def _emit(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_bytes(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    omega = _single_omega(args.omega)
    circuit = load_circuit(args.circuit)
    lines = [
        f"circuit: {circuit.name or args.circuit} "
        f"({circuit.num_qubits} qubits, {circuit.depth} slices)"
    ]
    unis = circuit_unitaries(circuit)
    eye = np.eye(2**circuit.num_qubits)
    uni_residual = max(frobenius(u.conj().T @ u - eye) for u in unis)
    lines.append(f"max slice unitarity residual: {uni_residual:.3e}")
    chain = wk.build_dqc_chain(circuit, wk.ChainParams(omega))
    norm_residual = float(wk.validate(chain).max())
    lines.append(
        f"walk normalization residual (omega={fmt(omega)}): {norm_residual:.3e}"
    )
    ok = uni_residual <= TOL.unitary and norm_residual <= TOL.walk_norm
    lines.append("OK" if ok else "FAIL")
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_run(args: argparse.Namespace) -> int:
    omega = _single_omega(args.omega)
    circuit = load_circuit(args.circuit)
    psi0 = _input_state(args, circuit)
    chain = wk.build_dqc_chain(circuit, wk.ChainParams(omega))
    report = wk.run_chain(
        chain, tol=_resolve_tol(args.circuit, args.tol), max_steps=args.max_steps
    )
    # The fidelity of the output register's state to the circuit's output;
    # undefined while no population has reached that register.  That state
    # is the normalized block p_T·v v† of v = U_T···U_1 ψ0 (ψ0 is a unit
    # basis vector), the one block of the run that is built.
    fidelity = math.nan
    if report.final_detection > TOL.zero_probability:
        target = circuit_product(circuit) @ psi0
        v = psi0
        for u in chain.unitaries:
            v = u @ v
        block = (report.final_detection * v)[:, None] * v.conj()[None, :]
        rho = block / np.trace(block).real
        fidelity = float((target.conj() @ rho @ target).real)

    history = report.history.tolist()
    summary = (
        f"{report.steps},{fmt(report.final_detection)},"
        f"{fmt(fidelity)},{str(report.converged).lower()}"
    )
    _emit(
        args.out,
        _node_csv("step,node,probability", range(len(history)), history)
        + f"steps_to_converge,final_detection,final_fidelity,converged\n{summary}\n",
    )
    return EXIT_OK if report.converged else EXIT_NUMERIC


def _sweep_workers() -> int:
    """One: the sweep is a single lockstep job."""
    return 1


def __getattr__(name):
    if name == "ThreadPoolExecutor":
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cmd_sweep(args: argparse.Namespace) -> int:
    omegas = parse_omega_spec(args.omega)
    circuit = load_circuit(args.circuit)
    tol = _resolve_tol(args.circuit, args.tol)
    # A one-thread pool gains nothing; it stays only because the benchmark
    # pins it (the ``cli.sweep.pool`` span, the ``cli.ThreadPoolExecutor``
    # patch, ``_sweep_workers()``), and ROADMAP item 2 deletes it after item 1.
    # The class is read from the module at call time, so a patch takes effect.
    with sys.modules[__name__].ThreadPoolExecutor(max_workers=_sweep_workers()) as pool:
        reports = pool.submit(
            wk.sweep_chain, circuit.depth, omegas, tol, args.max_steps
        ).result()

    rows = ["omega,steps_to_converge,final_detection,converged"]
    all_converged = True
    for omega, report in zip(omegas, reports):
        all_converged &= report.converged
        rows.append(
            f"{fmt(omega)},{report.steps},{fmt(report.final_detection)},"
            f"{str(report.converged).lower()}"
        )
    _emit(args.out, "\n".join(rows) + "\n")
    return EXIT_OK if all_converged else EXIT_NUMERIC


def cmd_lindblad(args: argparse.Namespace) -> int:
    from . import lindblad as lb
    circuit = load_circuit(args.circuit)
    x = int(np.flatnonzero(_input_state(args, circuit))[0])
    model = lb.build_dqc_lindblad(circuit, include_reset=args.include_reset,
                                  popcount=x.bit_count())
    result = lb.integrate(model, model.start, dt=args.dt, stop_tol=args.stop_tol,
                          max_time=args.max_time, observe_every=args.record_every)
    times = [fmt(t) for t, _ in result.samples]
    marginals = [marg.tolist() for _, marg in result.samples]
    uniform = 1.0 / model.num_nodes
    deviation = float(np.abs(result.samples[-1][1] - uniform).max())
    _emit(
        args.out,
        _node_csv("time,node,probability", times, marginals)
        + "max_deviation_from_uniform,stationary\n"
        f"{fmt(deviation)},{str(result.stationary).lower()}\n",
    )
    return EXIT_OK if result.stationary else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises a rejected command line as a ValueError, so that ``main``
    reports it as it reports every other input error."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oqw",
        description="Open quantum walk simulator for dissipative circuit chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    validate, run, sweep, lindblad = (
        sub.add_parser(name) for name in ("validate", "run", "sweep", "lindblad")
    )
    for p in (validate, run, sweep, lindblad):
        p.add_argument("--circuit", required=True, help="built-in name or file path")
    for p in (validate, run, sweep):
        p.add_argument("--omega", default="0.5",
                       help="value, or start:stop:step grid (sweep only)")
    for p in (run, sweep):
        p.add_argument("--tol", type=float, default=None,
                       help="convergence tolerance (default 1e-7; 1e-5 for qft4)")
        p.add_argument("--max-steps", type=int, default=100_000)
    for p in (run, lindblad):
        p.add_argument("--input", dest="input_bits", default=None,
                       help="input bitstring (defaults per circuit)")
    for p in (validate, run, sweep, lindblad):
        p.add_argument("--out", default=None, help="output path (default stdout)")

    lindblad.add_argument("--dt", type=float, default=0.01, help="integrator step size")
    lindblad.add_argument("--stop-tol", type=float, default=1e-8,
                          help="stationarity threshold on the generator norm")
    lindblad.add_argument("--max-time", type=float, default=500.0)
    lindblad.add_argument("--record-every", type=float, default=1.0,
                          help="sampling interval for the CSV trajectory")
    lindblad.add_argument("--include-reset", action="store_true",
                          help="add the per-qubit reset jumps at register 0")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:  # bad options, values, circuits and files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
