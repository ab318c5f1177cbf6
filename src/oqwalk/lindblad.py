"""Continuous-time reference model for the dissipative chain.

Purely dissipative master equation dρ/dt = Σ_k L_k ρ L_k† − ½{L_k†L_k, ρ}
with jump operators built from the circuit unitaries: the pair of registers
(t−1, t) is coupled by the Hermitian operator U_t ⊗ |t⟩⟨t−1| + U_t† ⊗
|t−1⟩⟨t|, so hopping forward applies the next gate and hopping backward
undoes it.  Optional reset jumps lower each qubit inside register 0.

These jumps map a state that is block diagonal in the register index to one
that is again block diagonal, and on such states the register jump acts
exactly as its two edges (t−1 → t, U_t) and (t → t−1, U_t†) taken as
separate jumps B ⊗ |i⟩⟨j|: the cross terms vanish.  So the model is stored
as the walk's edge table and integrated on stacked (N, d, d) node blocks,
with the generator of the continuous-time open quantum walk

    dρ_n/dt = Σ_{e: dst=n} B_e ρ_src B_e† − ½{K_n, ρ_n},
    K_n = Σ_{e: src=n} B_e†B_e,

whose jump term is the walk's step kernel.  A model with one node is a
plain dense Lindblad generator.  The integrator is a fixed-step classical
Runge-Kutta scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .circuits import Circuit, apply_on_qubits, circuit_unitaries
from .errors import DomainError, ShapeError
from .linalg import frobenius
from .walk import BlockState, edge_arrays

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
    """Dissipative generator on node blocks, stored as an edge table.

    ``edges`` are (source j, target i, B) triples on ``num_nodes`` nodes
    with ``dim``-dimensional blocks; each is the jump B ⊗ |i⟩⟨j|, and a
    (source, target) pair may repeat.  There is no Hamiltonian part.  With
    one node every edge is (0, 0) and the model is the dense generator of
    its jump operators.  ``_g`` holds −½K_n per node.
    """

    def __init__(self, num_nodes: int, dim: int, edges):
        self._src, self._dst, self._b_ops, self._b_dag = edge_arrays(num_nodes, dim, edges)
        self.num_nodes = int(num_nodes)
        self.dim = int(dim)
        k = _kernels.source_gram(self._b_ops, self._b_dag, self._src, self._dst, self.num_nodes)
        self._g = -0.5 * k
        self._g_dag = np.ascontiguousarray(_adjoint(self._g))

    def __repr__(self):
        return (
            f"LindbladModel(num_nodes={self.num_nodes}, dim={self.dim}, "
            f"edges={len(self._src)})"
        )


def build_dqc_lindblad(circuit: Circuit, include_reset: bool = False) -> LindbladModel:
    """The chain's jumps as edges on T+1 registers of 2^q-dimensional blocks.

    Slice t gives the edges (t−1 → t, U_t) and (t → t−1, U_t†);
    ``include_reset`` adds one (0 → 0) edge per qubit, lowering that qubit.
    """
    big_t, n = circuit.depth, circuit.num_qubits
    edges = []
    for t, u in enumerate(circuit_unitaries(circuit), start=1):
        edges += [(t - 1, t, u), (t, t - 1, u.conj().T)]
    if include_reset:
        eye = np.eye(2**n, dtype=np.complex128)
        edges += [(0, 0, apply_on_qubits(_LOWER, (q,), eye)) for q in range(1, n + 1)]
    return LindbladModel(big_t + 1, 2**n, edges)


def _adjoint(blocks) -> np.ndarray:
    return blocks.conj().transpose(0, 2, 1)


def _checked_blocks(model: LindbladModel, rho, name: str) -> np.ndarray:
    """rho as finite (N, d, d) blocks of unit total trace, Hermitian within 1e-8."""
    blocks = np.ascontiguousarray(rho, dtype=np.complex128)
    shape = (model.num_nodes, model.dim, model.dim)
    if blocks.shape != shape:
        raise ShapeError(f"{name} must be blocks of shape {shape}, got {blocks.shape}")
    if not np.isfinite(blocks).all():
        raise DomainError(f"{name} contains NaN or Inf entries")
    if abs(np.einsum("nii->", blocks) - 1.0) > 1e-8:
        raise DomainError(f"{name} must have unit trace within 1e-8")
    if frobenius(blocks - _adjoint(blocks)) > 1e-8:
        raise DomainError(f"{name} must be Hermitian within 1e-8")
    return blocks


def _rhs(model: LindbladModel, blocks) -> np.ndarray:
    jump = _kernels.step_blocks(model._b_ops, model._b_dag, model._src, model._dst, blocks)
    return _kernels.lindblad_rhs_kernel(jump, model._g, model._g_dag, blocks)


def lindblad_rhs(model: LindbladModel, rho) -> np.ndarray:
    """Generator applied to a block state, with input checks."""
    return _rhs(model, _checked_blocks(model, rho, "rho"))


@dataclass
class IntegrationResult:
    """Final state of a fixed-step integration run."""

    #: The final (N, d, d) node blocks.
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

    ``rho0`` and the state are (N, d, d) node blocks.  The state is
    re-Hermitized each step and its trace renormalized whenever the drift
    exceeds 1e-12.  ``observer(t, rho)`` is called at t = 0 and then roughly
    every ``observe_every`` time units plus at the final state.
    Because the generator is linear, its fixed points are fixed points of
    the RK4 map as well, so the step size affects transient rates but not
    the stationary state the run converges to.
    """
    for name, value in (("dt", dt), ("stop_tol", stop_tol), ("max_time", max_time),
                        ("observe_every", observe_every)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    for name, value in (("dt", dt), ("stop_tol", stop_tol), ("observe_every", observe_every)):
        if value <= 0:
            raise DomainError(f"{name} must be positive, got {value}")
    if max_time < 0:
        raise DomainError(f"max_time must be non-negative, got {max_time}")
    rho = _checked_blocks(model, rho0, "rho0")
    rho = 0.5 * (rho + _adjoint(rho))
    rhs = lambda r: _rhs(model, r)

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
        rho = 0.5 * (rho + _adjoint(rho))
        tr = np.einsum("nii->", rho).real
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


def node_marginals(rho) -> np.ndarray:
    """Population of each chain register: the trace of its block."""
    return BlockState(rho).probabilities()
