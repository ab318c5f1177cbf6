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
as an edge table on stacked (N, d, d) node blocks, with the generator of
the continuous-time open quantum walk

    dρ_n/dt = Σ_{e: dst=n} B_e ρ_src B_e† − ½{K_n, ρ_n},
    K_n = Σ_{e: src=n} B_e†B_e.

The model integrates in a frame of per-node unitaries W_n, on the blocks
ρ̃_n = W_n† ρ_n W_n, where an edge's coin becomes W_dst† B W_src.  The
chain uses the history-state frame W_0 = I, W_t = U_t W_{t−1}, in which
both edges of every slice have the identity as coin and the resets at node
0 keep theirs.  An edge may state its coin as a number c, the jump c·I,
which moves ρ̃_src to ρ̃_dst at rate |c|²; all such scalar edges together
are one real (N, N) generator acting on every block entry alike: on the
chain, whose builder states each hop as the scalar 1, the path-graph
Laplacian.  The matrix edges go through the walk's step kernel and the
damping kernel, on the sub-stack of the nodes they touch.
``lindblad_rhs``, ``integrate`` and its observer take and give lab-frame
blocks ρ_n = W_n ρ̃_n W_n†.  A model with one node and no frame is a
plain dense Lindblad generator.  The integrator is a fixed-step classical
Runge-Kutta scheme.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .circuits import Circuit, apply_on_qubits, circuit_unitaries
from .config import TOL
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

#: Largest RK4 step count ``ceil(max_time/dt)`` a run may plan; the default
#: ``max_time`` and ``dt`` plan 50 000.
MAX_RK4_STEPS = 1_000_000

#: Slack of the unit-trace and Hermiticity checks on an input state; looser
#: than ``TOL``, since ``integrate`` symmetrizes and renormalizes it anyway.
INPUT_TOL = 1e-8
#: Trace drift above which an RK4 step renormalizes the state: the generator
#: preserves the trace, so a smaller drift is rounding, not worth a division.
RENORM_TOL = 1e-12

_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)


class LindbladModel:
    """Dissipative generator on node blocks, stored as an edge table.

    ``edges`` are (source j, target i, B) triples on ``num_nodes`` nodes
    with ``dim``-dimensional blocks; each is the jump B ⊗ |i⟩⟨j|, and a
    (source, target) pair may repeat.  The coin B is a (dim, dim) matrix or
    a number c, which stands for the jump c·I; both get the range and
    finiteness checks of ``edge_arrays``.  There is no Hamiltonian part.
    ``frames``, if given, holds one unitary W_n per node, and the coins are
    then those of the frame, W_i† B W_j for a lab-frame coin B.

    Every scalar edge c is a rate |c|² in ``_rates``, the real (N, N)
    generator of those edges: |c|² at [i, j], −|c|² at [j, j].  The matrix
    edges, c·I included, are kept with ``_src`` and ``_dst`` counted from
    the start of ``_span``, the range of nodes they touch, and ``_g`` holds
    −½K_n of those edges for each node of ``_span``.
    """

    def __init__(self, num_nodes: int, dim: int, edges, frames=None):
        edges = list(edges)
        scalar = [(s, d, [[c]]) for s, d, c in edges if isinstance(c, numbers.Number)]
        r_src, r_dst, c, _ = edge_arrays(num_nodes, 1, scalar)
        src, dst, b_ops, b_dag = edge_arrays(
            num_nodes, dim, [e for e in edges if not isinstance(e[2], numbers.Number)]
        )
        self.num_nodes, self.dim = int(num_nodes), int(dim)
        self._frames = self._frames_dag = None
        if frames is not None:
            self._frames = _checked_frames(self, frames)
            self._frames_dag = np.ascontiguousarray(_adjoint(self._frames))
        rate = np.abs(c[:, 0, 0]) ** 2
        self._rates = np.zeros((self.num_nodes, self.num_nodes))
        np.add.at(self._rates, (r_dst, r_src), rate)
        np.add.at(self._rates, (r_src, r_src), -rate)
        touched = np.concatenate([src, dst])
        lo, hi = (touched.min(), touched.max() + 1) if len(touched) else (0, 0)
        self._span = slice(int(lo), int(hi))
        self._src, self._dst, self._b_ops, self._b_dag = src - lo, dst - lo, b_ops, b_dag
        k = _kernels.source_gram(self._b_ops, self._b_dag, self._src, self._dst, hi - lo)
        self._g = -0.5 * k
        self._g_dag = np.ascontiguousarray(_adjoint(self._g))
        self._num_edges = len(edges)

    def __repr__(self):
        return (
            f"LindbladModel(num_nodes={self.num_nodes}, dim={self.dim}, "
            f"edges={self._num_edges})"
        )


def _checked_frames(model: LindbladModel, frames) -> np.ndarray:
    """frames as finite (N, d, d) blocks, each unitary within ``TOL.unitary``."""
    w = np.array(frames, dtype=np.complex128)
    shape = (model.num_nodes, model.dim, model.dim)
    if w.shape != shape:
        raise ShapeError(f"frames must be blocks of shape {shape}, got {w.shape}")
    if not np.isfinite(w).all():
        raise DomainError("frames contain NaN or Inf entries")
    residual = np.linalg.norm(_adjoint(w) @ w - np.eye(model.dim), axis=(1, 2))
    if residual.max() > TOL.unitary:
        raise DomainError(
            f"frame {int(residual.argmax())} is not unitary within {TOL.unitary:g}"
        )
    return w


def build_dqc_lindblad(circuit: Circuit, include_reset: bool = False) -> LindbladModel:
    """The chain's jumps as edges on T+1 registers of 2^q-dimensional blocks,
    in the history-state frame W_0 = I, W_t = U_t W_{t−1}.

    Slice t gives the edges (t−1 → t, U_t) and (t → t−1, U_t†), whose
    coins in that frame are the identity, stated as the scalar 1.0: each
    is a unit rate, and no identity matrix is stacked.  ``include_reset``
    adds one (0 → 0) edge per qubit, lowering that qubit, where W_0 = I.
    """
    big_t, n = circuit.depth, circuit.num_qubits
    eye = np.eye(2**n, dtype=np.complex128)
    frames = [eye]
    for u in circuit_unitaries(circuit):
        frames.append(u @ frames[-1])
    edges = [e for t in range(1, big_t + 1) for e in ((t - 1, t, 1.0), (t, t - 1, 1.0))]
    if include_reset:
        edges += [(0, 0, apply_on_qubits(_LOWER, (q,), eye)) for q in range(1, n + 1)]
    return LindbladModel(big_t + 1, 2**n, edges, frames)


def _adjoint(blocks) -> np.ndarray:
    return blocks.conj().transpose(0, 2, 1)


def _lift(model: LindbladModel, blocks) -> np.ndarray:
    """Frame blocks ρ̃_n to lab blocks W_n ρ̃_n W_n†."""
    if model._frames is None:
        return blocks
    return model._frames @ blocks @ model._frames_dag


def _lower(model: LindbladModel, blocks) -> np.ndarray:
    """Lab blocks ρ_n to frame blocks W_n† ρ_n W_n."""
    if model._frames is None:
        return blocks
    return model._frames_dag @ blocks @ model._frames


def _checked_blocks(model: LindbladModel, rho, name: str) -> np.ndarray:
    """rho as finite (N, d, d) blocks of unit total trace and Hermitian,
    both within ``INPUT_TOL``."""
    blocks = np.ascontiguousarray(rho, dtype=np.complex128)
    shape = (model.num_nodes, model.dim, model.dim)
    if blocks.shape != shape:
        raise ShapeError(f"{name} must be blocks of shape {shape}, got {blocks.shape}")
    if not np.isfinite(blocks).all():
        raise DomainError(f"{name} contains NaN or Inf entries")
    if abs(np.einsum("nii->", blocks) - 1.0) > INPUT_TOL:
        raise DomainError(f"{name} must have unit trace within 1e-8")
    if frobenius(blocks - _adjoint(blocks)) > INPUT_TOL:
        raise DomainError(f"{name} must be Hermitian within 1e-8")
    return blocks


def _rhs(model: LindbladModel, blocks) -> np.ndarray:
    """The generator on frame blocks: the rates as one real product on the
    (N, 2d²) float view, plus the coin edges on the nodes they touch."""
    flat = blocks.reshape(model.num_nodes, -1).view(np.float64)
    out = (model._rates @ flat).view(np.complex128).reshape(blocks.shape)
    if len(model._src):
        sub = blocks[model._span]
        jump = _kernels.step_blocks(model._b_ops, model._b_dag, model._src, model._dst, sub)
        out[model._span] += _kernels.lindblad_rhs_kernel(jump, model._g, model._g_dag, sub)
    return out


def lindblad_rhs(model: LindbladModel, rho) -> np.ndarray:
    """Generator applied to lab-frame blocks, with input checks."""
    return _lift(model, _rhs(model, _lower(model, _checked_blocks(model, rho, "rho"))))


@dataclass
class IntegrationResult:
    """Final state of a fixed-step integration run."""

    #: The final (N, d, d) node blocks, in the lab frame.
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

    ``rho0`` and the state are (N, d, d) node blocks.  The state is carried
    in the model's frame, re-Hermitized each step and its trace renormalized
    whenever the drift exceeds ``RENORM_TOL``; it is lifted to the lab frame
    for the result and for each call of ``observer(t, rho)``, at t = 0 and
    then roughly every ``observe_every`` time units plus at the final state.
    Because the generator is linear, its fixed points are fixed points of
    the RK4 map as well, so the step size affects transient rates but not
    the stationary state the run converges to.  A ``dt`` above RK4's
    stability limit (about 0.70 on a chain, whose path Laplacian reaches
    −4) makes the state grow: a step whose total trace is not finite and
    positive, or any floating-point overflow, division by zero or invalid
    operation, raises ``ArithmeticError("RK4 diverged at step n: ...")``,
    which names the step and ``dt``.
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
    for name, count in (("max_time/dt", max_time / dt), ("observe_every/dt", observe_every / dt)):
        if not math.isfinite(count):
            raise DomainError(f"{name} must be a finite step count, got {count}")
    n_steps = math.ceil(max_time / dt)
    if n_steps > MAX_RK4_STEPS:
        raise DomainError(
            f"max_time/dt = {max_time / dt:.17g} RK4 steps; at most {MAX_RK4_STEPS}"
        )
    rho = _lower(model, _checked_blocks(model, rho0, "rho0"))
    rho = 0.5 * (rho + _adjoint(rho))
    rhs = lambda r: _rhs(model, r)

    if observer is not None:
        observer(0.0, _lift(model, rho))
    stride = max(1, round(observe_every / dt))
    stationary = False
    rhs_norm = math.nan
    steps = 0
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for n in range(n_steps):
            try:
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
            except FloatingPointError as exc:
                raise ArithmeticError(
                    f"RK4 diverged at step {n + 1}: {exc} (dt = {dt:g})"
                ) from exc
            if not (math.isfinite(tr) and tr > 0):
                raise ArithmeticError(
                    f"RK4 diverged at step {n + 1}: total trace {tr:g} (dt = {dt:g})"
                )
            if abs(tr - 1.0) > RENORM_TOL:
                rho = rho / tr
            steps = n + 1
            if observer is not None and steps % stride == 0:
                observer(steps * dt, _lift(model, rho))
    if not stationary:
        rhs_norm = frobenius(rhs(rho))
        stationary = rhs_norm < stop_tol
    if observer is not None and steps % stride != 0:
        observer(steps * dt, _lift(model, rho))
    return IntegrationResult(
        rho=_lift(model, rho), time=steps * dt, steps=steps, stationary=stationary, rhs_norm=rhs_norm
    )


def node_marginals(rho) -> np.ndarray:
    """Population of each chain register: the trace of its block."""
    return BlockState(rho).probabilities()
