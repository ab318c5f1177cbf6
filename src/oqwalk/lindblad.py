"""Continuous-time reference model for the dissipative chain.

Purely dissipative master equation dρ/dt = Σ_k L_k ρ L_k† − ½{L_k†L_k, ρ}
with jump operators built from the circuit unitaries: the pair of registers
(t−1, t) is coupled by the Hermitian operator U_t ⊗ |t⟩⟨t−1| + U_t† ⊗
|t−1⟩⟨t|, so hopping forward applies the next gate and hopping backward
undoes it.  Optional reset jumps lower each qubit inside register 0.

This model exists for desk-scale cross-validation of the discrete walk, so
everything is dense, the integrator is a plain fixed-step classical
Runge-Kutta scheme, and the full dimension is capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .circuits import Circuit, circuit_unitaries, embed_single
from .config import MAX_LINDBLAD_DIM, TOL
from .errors import CapacityError, DomainError, ShapeError
from .linalg import as_matrix, frobenius

__all__ = [
    "LindbladModel",
    "IntegrationResult",
    "build_dqc_lindblad",
    "lindblad_rhs",
    "integrate",
    "node_marginals",
]

_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)


class LindbladModel:
    """Dissipative generator data: jump operators on one Hilbert space.

    There is no Hamiltonian part.  ``internal_dim``/``num_nodes`` carry the
    register factorization when the model came from a chain build; they stay
    ``None`` for hand-assembled models.
    """

    def __init__(
        self,
        jumps,
        dim: int | None = None,
        internal_dim: int | None = None,
        num_nodes: int | None = None,
    ):
        ops = [as_matrix(op) for op in jumps]
        dims = {op.shape for op in ops}
        if len(dims) > 1:
            raise ShapeError(f"jump operators disagree on shape: {sorted(dims)}")
        if ops:
            if ops[0].shape[0] != ops[0].shape[1]:
                raise ShapeError("jump operators must be square")
            self.dim = ops[0].shape[0]
            if dim is not None and dim != self.dim:
                raise ShapeError(f"dim {dim} does not match jump shape {ops[0].shape}")
        elif dim is not None:
            # Jump-free generator: rhs is identically zero.  Allowed so that
            # the integrator's fixed-point behavior can be exercised.
            self.dim = int(dim)
        else:
            raise ShapeError("a jump-free model needs an explicit dim")
        self.jumps = tuple(ops)
        self.internal_dim = internal_dim
        self.num_nodes = num_nodes
        self._l_ops = np.array(ops, dtype=np.complex128).reshape(-1, self.dim, self.dim)
        self._l_dag = np.ascontiguousarray(self._l_ops.conj().transpose(0, 2, 1))
        self._damp = 0.5 * np.einsum("kij,kjl->il", self._l_dag, self._l_ops)

    def __repr__(self):
        return f"LindbladModel(dim={self.dim}, jumps={len(self.jumps)})"


def build_dqc_lindblad(circuit: Circuit, include_reset: bool = False) -> LindbladModel:
    """Assemble the chain's jump operators on the (internal ⊗ node) space.

    One register jump per circuit slice; ``include_reset`` adds one qubit
    reset per qubit, active only inside register 0.  The full dimension
    2^q · (T+1) must stay within the desk-scale cap.
    """
    big_t = circuit.depth
    if big_t < 1:
        raise DomainError("circuit must have at least one slice")
    dim_internal = 2**circuit.num_qubits
    num_nodes = big_t + 1
    full = dim_internal * num_nodes
    if full > MAX_LINDBLAD_DIM:
        raise CapacityError(
            f"full dimension {full} exceeds the desk-scale cap {MAX_LINDBLAD_DIM}"
        )
    unitaries = circuit_unitaries(circuit)
    jumps = []
    for t in range(1, num_nodes):
        hop = np.zeros((num_nodes, num_nodes), dtype=np.complex128)
        hop[t, t - 1] = 1.0
        jumps.append(np.kron(unitaries[t - 1], hop) + np.kron(unitaries[t - 1].conj().T, hop.T))
    if include_reset:
        node0 = np.zeros((num_nodes, num_nodes), dtype=np.complex128)
        node0[0, 0] = 1.0
        for q in range(1, circuit.num_qubits + 1):
            jumps.append(np.kron(embed_single(_LOWER, q, circuit.num_qubits), node0))
    return LindbladModel(jumps, internal_dim=dim_internal, num_nodes=num_nodes)


def lindblad_rhs(model: LindbladModel, rho) -> np.ndarray:
    """Generator applied to a density matrix, with input checks."""
    rho = as_matrix(rho)
    if rho.shape != (model.dim, model.dim):
        raise ShapeError(f"rho must be {model.dim}x{model.dim}, got {rho.shape}")
    if abs(np.trace(rho) - 1.0) > 1e-8:
        raise DomainError("rho must have unit trace within 1e-8")
    if frobenius(rho - rho.conj().T) > 1e-8:
        raise DomainError("rho must be Hermitian within 1e-8")
    return _kernels.lindblad_rhs_kernel(model._l_ops, model._l_dag, model._damp, rho)


@dataclass
class IntegrationResult:
    """Final state of a fixed-step integration run."""

    rho: np.ndarray
    time: float
    steps: int
    #: True when the stopping rule ‖rhs‖_F < stop_tol fired before max_time.
    stationary: bool
    rhs_norm: float


def integrate(
    model: LindbladModel,
    rho0,
    dt: float = 0.01,
    stop_tol: float = 1e-8,
    max_time: float = 500.0,
    observer=None,
    observe_every: float = 1.0,
) -> IntegrationResult:
    """March the master equation to stationarity with classical RK4 steps.

    The state is re-Hermitized each step and its trace renormalized whenever
    the drift exceeds 1e-12.  ``observer(t, rho)`` is called at t = 0 and
    then roughly every ``observe_every`` time units plus at the final state.
    Because the generator is linear, its fixed points are fixed points of
    the RK4 map as well, so the step size affects transient rates but not
    the stationary state the run converges to.
    """
    for name, value in (("dt", dt), ("stop_tol", stop_tol), ("max_time", max_time),
                        ("observe_every", observe_every)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if dt <= 0:
        raise DomainError("dt must be positive")
    rho = as_matrix(rho0)
    if rho.shape != (model.dim, model.dim):
        raise ShapeError(f"rho must be {model.dim}x{model.dim}, got {rho.shape}")
    if abs(np.trace(rho) - 1.0) > 1e-8:
        raise DomainError("rho0 must have unit trace within 1e-8")
    if frobenius(rho - rho.conj().T) > 1e-8:
        raise DomainError("rho0 must be Hermitian within 1e-8")
    rho = 0.5 * (rho + rho.conj().T)

    l_ops, l_dag, damp = model._l_ops, model._l_dag, model._damp
    rhs = lambda r: _kernels.lindblad_rhs_kernel(l_ops, l_dag, damp, r)

    if observer is not None:
        observer(0.0, rho)
    stride = max(1, round(observe_every / dt))
    n_steps = int(math.ceil(max_time / dt))
    stationary = False
    rhs_norm = math.nan
    steps = 0
    for n in range(n_steps):
        k1 = rhs(rho)
        rhs_norm = frobenius(k1)
        if rhs_norm < stop_tol:
            stationary = True
            break
        k2 = rhs(rho + (0.5 * dt) * k1)
        k3 = rhs(rho + (0.5 * dt) * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        tr = np.trace(rho).real
        if abs(tr - 1.0) > 1e-12:
            rho = rho / tr
        steps = n + 1
        if observer is not None and steps % stride == 0:
            observer(steps * dt, rho)
    if not stationary:
        rhs_norm = frobenius(rhs(rho))
        stationary = rhs_norm < stop_tol
    if observer is not None and steps % stride != 0:
        observer(steps * dt, rho)
    return IntegrationResult(
        rho=rho, time=steps * dt, steps=steps, stationary=stationary, rhs_norm=rhs_norm
    )


def node_marginals(rho, internal_dim: int, num_nodes: int) -> np.ndarray:
    """Population of each chain register: partial trace over the internal space."""
    rho = as_matrix(rho)
    if rho.shape != (internal_dim * num_nodes,) * 2:
        raise ShapeError(
            f"rho shape {rho.shape} does not factor as {internal_dim}·{num_nodes}"
        )
    diag = np.diagonal(rho).real
    return diag.reshape(internal_dim, num_nodes).sum(axis=0)
