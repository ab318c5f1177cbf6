"""Command-line front end.

Subcommands: ``validate`` (circuit and walk normalization report), ``run``
(single walk to steady state, per-step CSV), ``sweep`` (ω grid, one summary
row per value), ``lindblad`` (continuous-time cross-check).  All numeric CSV
fields are printed with 17 significant digits and LF line endings, so output
is byte-stable for a fixed configuration.

Exit codes: 0 success, 1 numerical non-convergence, 2 input error.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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
from .errors import CapacityError, CircuitParseError, DomainError, ShapeError
from .linalg import frobenius

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_INPUT = 2

_DEFAULT_INPUTS = {"toffoli": "110", "qft3": "000", "qft4": "0000"}
_DEFAULT_TOLS = {"qft4": 1e-5}


@dataclass
class RunConfig:
    """Resolved options for one subcommand invocation."""

    circuit: str
    omegas: list[float] = field(default_factory=lambda: [0.5])
    tol: float | None = None
    max_steps: int = 100_000
    input_bits: str | None = None
    out: str | None = None
    # lindblad-only knobs
    dt: float = 0.01
    stop_tol: float = 1e-8
    max_time: float = 500.0
    record_every: float = 1.0
    include_reset: bool = False


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


def _resolve_input(cfg: RunConfig, circuit: Circuit) -> str:
    bits = cfg.input_bits
    if bits is None:
        bits = _DEFAULT_INPUTS.get(cfg.circuit, "0" * circuit.num_qubits)
    if len(bits) != circuit.num_qubits:
        raise DomainError(
            f"input {bits!r} has {len(bits)} bits, circuit has {circuit.num_qubits} qubits"
        )
    return bits


def _resolve_tol(cfg: RunConfig) -> float:
    if cfg.tol is not None:
        if not (np.isfinite(cfg.tol) and cfg.tol > 0):
            raise DomainError(f"tol must be finite and positive, got {cfg.tol}")
        return cfg.tol
    return _DEFAULT_TOLS.get(cfg.circuit, 1e-7)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out is None or cfg.out == "-":
        sys.stdout.write(text)
    else:
        Path(cfg.out).write_bytes(text.encode("utf-8"))


def _single_run(circuit: Circuit, omega: float, tol: float, cfg: RunConfig, bits: str):
    params = wk.ChainParams(omega)
    chain = wk.build_dqc_chain(circuit, params)
    psi0 = basis_state(circuit.num_qubits, bits)
    init = wk.BlockState.pure(chain.num_nodes, chain.dim, 0, psi0)
    target = circuit_product(circuit) @ psi0
    return wk.run_until_converged(
        chain, init, tol=tol, max_steps=cfg.max_steps, target_state=target
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(cfg: RunConfig) -> int:
    circuit = load_circuit(cfg.circuit)
    lines = [
        f"circuit: {circuit.name or cfg.circuit} "
        f"({circuit.num_qubits} qubits, {circuit.depth} slices)"
    ]
    unis = circuit_unitaries(circuit)
    uni_residual = max(
        frobenius(u.conj().T @ u - np.eye(u.shape[0])) for u in unis
    )
    lines.append(f"max slice unitarity residual: {uni_residual:.3e}")
    omega = cfg.omegas[0] if len(cfg.omegas) == 1 else 0.5
    chain = wk.build_dqc_chain(circuit, wk.ChainParams(omega))
    violations = wk.validate(chain, tol=0.0)  # collect raw residuals
    norm_residual = max((v.residual for v in violations), default=0.0)
    lines.append(
        f"walk normalization residual (omega={fmt(omega)}): {norm_residual:.3e}"
    )
    ok = uni_residual <= 1e-10 and norm_residual <= 1e-10
    lines.append("OK" if ok else "FAIL")
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_run(cfg: RunConfig) -> int:
    if len(cfg.omegas) != 1:
        raise DomainError("run takes a single omega; use sweep for grids")
    circuit = load_circuit(cfg.circuit)
    bits = _resolve_input(cfg, circuit)
    tol = _resolve_tol(cfg)
    report = _single_run(circuit, cfg.omegas[0], tol, cfg, bits)

    rows = ["step,node,probability"]
    for n, dist in enumerate(report.history):
        for node, p in enumerate(dist):
            rows.append(f"{n},{node},{fmt(p)}")
    rows.append("steps_to_converge,final_detection,final_fidelity,converged")
    rows.append(
        f"{report.steps},{fmt(report.final_detection)},"
        f"{fmt(report.final_fidelity)},{str(report.converged).lower()}"
    )
    _emit(cfg, "\n".join(rows) + "\n")
    return EXIT_OK if report.converged else EXIT_NUMERIC


def _sweep_workers() -> int:
    env = os.environ.get("OQW_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def cmd_sweep(cfg: RunConfig) -> int:
    circuit = load_circuit(cfg.circuit)
    bits = _resolve_input(cfg, circuit)
    tol = _resolve_tol(cfg)
    omegas = sorted(cfg.omegas)

    def job(omega: float):
        return _single_run(circuit, omega, tol, cfg, bits)

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
    _emit(cfg, "\n".join(rows) + "\n")
    return EXIT_OK if all_converged else EXIT_NUMERIC


def cmd_lindblad(cfg: RunConfig) -> int:
    circuit = load_circuit(cfg.circuit)
    bits = _resolve_input(cfg, circuit)
    model = lb.build_dqc_lindblad(circuit, include_reset=cfg.include_reset)
    psi0 = basis_state(circuit.num_qubits, bits)
    node0 = np.zeros(model.num_nodes)
    node0[0] = 1.0
    rho0 = np.kron(np.outer(psi0, psi0.conj()), np.diag(node0)).astype(np.complex128)

    samples: list[tuple[float, np.ndarray]] = []

    def observer(t: float, rho: np.ndarray) -> None:
        samples.append((t, lb.node_marginals(rho, model.internal_dim, model.num_nodes)))

    result = lb.integrate(
        model,
        rho0,
        dt=cfg.dt,
        stop_tol=cfg.stop_tol,
        max_time=cfg.max_time,
        observer=observer,
        observe_every=cfg.record_every,
    )
    rows = ["time,node,probability"]
    for t, marg in samples:
        for node, p in enumerate(marg):
            rows.append(f"{fmt(t)},{node},{fmt(p)}")
    uniform = 1.0 / model.num_nodes
    deviation = float(np.abs(samples[-1][1] - uniform).max())
    rows.append("max_deviation_from_uniform,stationary")
    rows.append(f"{fmt(deviation)},{str(result.stationary).lower()}")
    _emit(cfg, "\n".join(rows) + "\n")
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

    def common(p):
        p.add_argument("--circuit", required=True, help="built-in name or file path")
        p.add_argument("--omega", default="0.5", help="value or start:stop:step grid")
        p.add_argument("--tol", type=float, default=None,
                       help="convergence tolerance (default 1e-7; 1e-5 for qft4)")
        p.add_argument("--max-steps", type=int, default=100_000)
        p.add_argument("--input", dest="input_bits", default=None,
                       help="input bitstring (defaults per circuit)")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    for name, fn in [
        ("validate", cmd_validate),
        ("run", cmd_run),
        ("sweep", cmd_sweep),
        ("lindblad", cmd_lindblad),
    ]:
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=fn)

    lp = sub.choices["lindblad"]
    lp.add_argument("--dt", type=float, default=0.01, help="integrator step size")
    lp.add_argument("--stop-tol", type=float, default=1e-8,
                    help="stationarity threshold on the generator norm")
    lp.add_argument("--max-time", type=float, default=500.0)
    lp.add_argument("--record-every", type=float, default=1.0,
                    help="sampling interval for the CSV trajectory")
    lp.add_argument("--include-reset", action="store_true",
                    help="add the per-qubit reset jumps at register 0")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        circuit=args.circuit,
        omegas=parse_omega_spec(args.omega),
        tol=args.tol,
        max_steps=args.max_steps,
        input_bits=args.input_bits,
        out=args.out,
    )
    for name in ("dt", "stop_tol", "max_time", "record_every", "include_reset"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        code = args.func(cfg)
    except (
        CircuitParseError,
        DomainError,
        ShapeError,
        CapacityError,
        FileNotFoundError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
