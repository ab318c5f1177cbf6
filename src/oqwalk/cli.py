"""Command-line front end.

Subcommands: ``validate`` (circuit and walk normalization report), ``run``
(single walk to steady state, per-step CSV), ``sweep`` (ω grid, one summary
row per value), ``lindblad`` (continuous-time cross-check).  Each subcommand
accepts only the options it reads; ``lindblad`` integrates the unit-rate
master equation, so it takes no ω, ``--tol`` or ``--max-steps``.  All numeric
CSV fields are printed with 17 significant digits and LF line endings, so
output is byte-stable for a fixed configuration.

Exit codes: 0 success, 1 numerical non-convergence, 2 input error.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import lindblad as lb
from . import walk as wk
from .circuits import (
    BUILTIN_CIRCUITS,
    Circuit,
    basis_state,
    circuit_product,
    circuit_unitaries,
    parse_circuit,
)
from .errors import DomainError
from .linalg import frobenius

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_INPUT = 2

_DEFAULT_INPUTS = {"toffoli": "110"}
_DEFAULT_TOLS = {"qft4": 1e-5}


def fmt(x: float) -> str:
    return f"{x:.17g}"


def parse_omega_spec(spec: str) -> list[float]:
    """A single value, or an inclusive ``start:stop:step`` grid."""
    parts = spec.split(":")
    if len(parts) == 1:
        values = [float(spec)]
    elif len(parts) == 3:
        start, stop, step_size = (float(p) for p in parts)
        if not step_size > 0:
            raise ValueError("grid step must be positive")
        if not np.isfinite(stop - start):
            raise ValueError("grid bounds must be finite")
        n = int(round((stop - start) / step_size))
        # snap accumulated float error so grid points equal the user's literals
        values = [round(start + k * step_size, 12) for k in range(n + 1)]
        values = [v for v in values if v <= stop + 1e-12]
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


def _emit(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_bytes(text.encode("utf-8"))


def _walk_job(args: argparse.Namespace):
    """The per-ω walk of ``run`` and ``sweep``: ω -> ConvergenceReport."""
    circuit = load_circuit(args.circuit)
    psi0 = _input_state(args, circuit)
    target = circuit_product(circuit) @ psi0
    tol = _resolve_tol(args.circuit, args.tol)

    def job(omega: float) -> wk.ConvergenceReport:
        chain = wk.build_dqc_chain(circuit, wk.ChainParams(omega))
        init = wk.BlockState.pure(chain.num_nodes, chain.dim, 0, psi0)
        return wk.run_until_converged(
            chain, init, tol=tol, max_steps=args.max_steps, target_state=target
        )

    return job


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
    uni_residual = max(
        frobenius(u.conj().T @ u - np.eye(u.shape[0])) for u in unis
    )
    lines.append(f"max slice unitarity residual: {uni_residual:.3e}")
    chain = wk.build_dqc_chain(circuit, wk.ChainParams(omega))
    violations = wk.validate(chain, tol=0.0)  # collect raw residuals
    norm_residual = max((v.residual for v in violations), default=0.0)
    lines.append(
        f"walk normalization residual (omega={fmt(omega)}): {norm_residual:.3e}"
    )
    ok = uni_residual <= 1e-10 and norm_residual <= 1e-10
    lines.append("OK" if ok else "FAIL")
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_run(args: argparse.Namespace) -> int:
    omega = _single_omega(args.omega)
    report = _walk_job(args)(omega)

    rows = ["step,node,probability"]
    for n, dist in enumerate(report.history):
        for node, p in enumerate(dist):
            rows.append(f"{n},{node},{fmt(p)}")
    rows.append("steps_to_converge,final_detection,final_fidelity,converged")
    rows.append(
        f"{report.steps},{fmt(report.final_detection)},"
        f"{fmt(report.final_fidelity)},{str(report.converged).lower()}"
    )
    _emit(args.out, "\n".join(rows) + "\n")
    return EXIT_OK if report.converged else EXIT_NUMERIC


def _sweep_workers() -> int:
    return min(8, os.cpu_count() or 1)


def cmd_sweep(args: argparse.Namespace) -> int:
    omegas = sorted(parse_omega_spec(args.omega))
    job = _walk_job(args)
    with ThreadPoolExecutor(max_workers=_sweep_workers()) as pool:
        reports = list(pool.map(job, omegas))

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
    circuit = load_circuit(args.circuit)
    psi0 = _input_state(args, circuit)
    model = lb.build_dqc_lindblad(circuit, include_reset=args.include_reset)
    rho0 = wk.BlockState.pure(model.num_nodes, model.dim, 0, psi0).blocks

    samples: list[tuple[float, np.ndarray]] = []

    def observer(t: float, rho: np.ndarray) -> None:
        samples.append((t, lb.node_marginals(rho)))

    result = lb.integrate(
        model,
        rho0,
        dt=args.dt,
        stop_tol=args.stop_tol,
        max_time=args.max_time,
        observer=observer,
        observe_every=args.record_every,
    )
    rows = ["time,node,probability"]
    for t, marg in samples:
        for node, p in enumerate(marg):
            rows.append(f"{fmt(t)},{node},{fmt(p)}")
    uniform = 1.0 / model.num_nodes
    deviation = float(np.abs(samples[-1][1] - uniform).max())
    rows.append("max_deviation_from_uniform,stationary")
    rows.append(f"{fmt(deviation)},{str(result.stationary).lower()}")
    _emit(args.out, "\n".join(rows) + "\n")
    return EXIT_OK if result.stationary else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqw",
        description="Open quantum walk simulator for dissipative circuit chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    validate, run, sweep, lindblad = (
        sub.add_parser(name) for name in ("validate", "run", "sweep", "lindblad")
    )
    for p, fn in ((validate, cmd_validate), (run, cmd_run),
                  (sweep, cmd_sweep), (lindblad, cmd_lindblad)):
        p.set_defaults(func=fn)
        p.add_argument("--circuit", required=True, help="built-in name or file path")
    for p in (validate, run, sweep):
        p.add_argument("--omega", default="0.5",
                       help="value, or start:stop:step grid (sweep only)")
    for p in (run, sweep):
        p.add_argument("--tol", type=float, default=None,
                       help="convergence tolerance (default 1e-7; 1e-5 for qft4)")
        p.add_argument("--max-steps", type=int, default=100_000)
    for p in (run, sweep, lindblad):
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
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad values, circuits and files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
