"""Canonical dissipative quantum computing on the chain of a circuit.

Purely dissipative master equation dρ/dt = Σ_k L_k ρ L_k† − ½{L_k†L_k, ρ}
with jump operators built from the circuit unitaries: the pair of registers
(t−1, t) is coupled by the Hermitian operator U_t ⊗ |t⟩⟨t−1| + U_t† ⊗
|t−1⟩⟨t|, so hopping forward applies the next gate and hopping backward
undoes it.  Optional reset jumps lower each qubit inside register 0.

These jumps map a state that is block diagonal in the register index to one
that is again block diagonal, so a state is (N, d, d) node blocks.  In the
history-state frame W_0 = I, W_t = U_t W_{t−1}, on the blocks
ρ̃_t = W_t† ρ_t W_t, both halves of every register jump are the identity,
so the hops move ρ̃_{t−1} to ρ̃_t and back at unit rate: the path-graph
Laplacian, acting on every block entry alike.  The resets keep their
lab-frame form, since W_0 = I: lowering qubit q moves the |1⟩⟨1| sub-block
of that qubit in ρ̃_0 to |0⟩⟨0|, so the diagonal entry of each x with bit q
set to that of x with it cleared, and the damping of all resets is the
diagonal G = −½·diag(popcount).  So no part of the generator
feeds the frame diagonal from an off-diagonal entry, and none feeds an
off-diagonal entry from the diagonal: p[t, x] = ⟨x|ρ̃_t|x⟩ evolves alone,
as a real Markov chain on (T+1)·2^q probabilities, and a state without
coherence in the frame keeps none.  ``integrate`` lowers its lab-frame
input once, rebuilding the frames from the model's slices one at a time,
and integrates p with fixed classical Runge-Kutta steps; the node
populations are its row sums, the traces, which the frame does not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import _kernels
from .circuits import Circuit, circuit_unitaries
from .errors import DomainError, ShapeError
from .linalg import frobenius

__all__ = [
    "LindbladModel",
    "IntegrationResult",
    "build_dqc_lindblad",
    "path_laplacian",
    "integrate",
    "node_marginals",
]

#: Largest RK4 step count ``ceil(max_time/dt)`` a run may plan; the default
#: ``max_time`` and ``dt`` plan 50 000.
MAX_RK4_STEPS = 1_000_000

#: Slack of the unit-trace, Hermiticity and frame-coherence checks on an
#: input state; looser than ``TOL``, since ``integrate`` keeps only the real
#: frame diagonal and renormalizes it anyway.
INPUT_TOL = 1e-8
#: Trace drift above which an RK4 step renormalizes the state: the generator
#: preserves the trace, so a smaller drift is rounding, not worth a division.
RENORM_TOL = 1e-12


def path_laplacian(num_nodes: int) -> np.ndarray:
    """Unit-rate generator of the path graph 0 − 1 − … − (N−1): 1 at
    [i, i ± 1], and minus the node's degree on the diagonal."""
    hops = np.eye(num_nodes, k=1) + np.eye(num_nodes, k=-1)
    return hops - np.diag(hops.sum(axis=0))


class LindbladModel:
    """The canonical dissipative model of a circuit, on T+1 registers of
    2^q-dimensional blocks: one Hermitian hop per slice between its two
    registers, and with ``include_reset`` one lowering jump per qubit at
    register 0.

    ``_rates`` is the path Laplacian of the hops.  ``_unitaries`` holds
    U_1..U_T, the circuit's read-only compiled slices, shared, not copied;
    the history-state frames W_t = U_t W_{t−1} are rebuilt from them, one
    at a time, to lower an input state, and never stored.  ``_resets`` is
    the number of qubits lowered at register 0 (0 without resets), and
    ``_g`` the diagonal of their damping G = −½·diag(popcount) as a real
    vector of length d, or None.
    """

    def __init__(self, circuit: Circuit, include_reset: bool = False):
        self._unitaries = tuple(circuit_unitaries(circuit))
        self.num_nodes, self.dim = len(self._unitaries) + 1, 2**circuit.num_qubits
        self._rates = path_laplacian(self.num_nodes)
        self._resets = circuit.num_qubits if include_reset else 0
        self._g = None
        if self._resets:
            self._g = -0.5 * np.array([bin(x).count("1") for x in range(self.dim)])

    def __repr__(self):
        return (
            f"LindbladModel(num_nodes={self.num_nodes}, dim={self.dim}, "
            f"resets={self._resets})"
        )


def build_dqc_lindblad(circuit: Circuit, include_reset: bool = False) -> LindbladModel:
    """The circuit's ``LindbladModel``, with or without the resets."""
    return LindbladModel(circuit, include_reset)


def _history_frames(model: LindbladModel):
    """W_0 = I, then W_t = U_t W_{t−1}, one frame at a time."""
    eye = np.eye(model.dim, dtype=np.complex128)
    return accumulate(model._unitaries, lambda w, u: u @ w, initial=eye)


def _frame_diagonal(model: LindbladModel, rho0) -> np.ndarray:
    """The real (N, d) diagonal of rho0's frame blocks W_n† ρ_n W_n, lowered
    one block at a time.  rho0 must be finite (N, d, d) blocks, of unit
    total trace and Hermitian, and its frame blocks must hold no coherence
    (off-diagonal or imaginary parts), all within ``INPUT_TOL`` in
    Frobenius norm.

    An exactly zero block has no skew and no coherence and lowers to zero,
    so it is left at zero, and no frame past the last non-zero block is
    built: a basis state at register 0, the CLI's input, lowers only W_0.
    """
    blocks = np.ascontiguousarray(rho0, dtype=np.complex128)
    shape = (model.num_nodes, model.dim, model.dim)
    if blocks.shape != shape:
        raise ShapeError(f"rho0 must be blocks of shape {shape}, got {blocks.shape}")
    if not np.isfinite(blocks).all():
        raise DomainError("rho0 contains NaN or Inf entries")
    if abs(np.einsum("nii->", blocks) - 1.0) > INPUT_TOL:
        raise DomainError("rho0 must have unit trace within 1e-8")
    p = np.zeros((model.num_nodes, model.dim))
    filled = blocks.any(axis=(1, 2))
    last = np.flatnonzero(filled)[-1]  # a unit trace fills some block
    skew = coherence = 0.0
    for t, w in zip(range(last + 1), _history_frames(model)):
        if not filled[t]:
            continue
        skew = math.hypot(skew, frobenius(blocks[t] - blocks[t].conj().T))
        frame = w.conj().T @ blocks[t] @ w
        diagonal = np.einsum("ii->i", frame)
        p[t] = diagonal.real
        diagonal.real = 0.0
        coherence = math.hypot(coherence, frobenius(frame))
    if skew > INPUT_TOL:
        raise DomainError("rho0 must be Hermitian within 1e-8")
    if coherence > INPUT_TOL:
        raise DomainError("rho0 must be diagonal in the history-state frame within 1e-8")
    return p


def _reset_moves(model: LindbladModel) -> tuple[np.ndarray, np.ndarray]:
    """The reset jumps as one (src, dst) index list on node 0's row: for
    each lowered qubit q in order, every x with bit d >> q set, and x with
    that bit cleared.  Empty without resets."""
    bits = model.dim >> np.arange(1, model._resets + 1)[:, None]
    x = np.arange(model.dim)
    moved = (x & bits) != 0
    return np.broadcast_to(x, moved.shape)[moved], (x ^ bits)[moved]


def _rhs(model: LindbladModel, p, moves) -> np.ndarray:
    """The generator on the (N, d) frame diagonal: the hops as one real
    product of the path Laplacian, plus the resets on node 0.

    ``moves`` is ``_reset_moves(model)``.  One ``np.add.at`` (numpy's 1-D
    fast path) sums the moved probabilities into each target from zero, in
    list order, so in qubit order, and raises on overflow under
    ``np.errstate``; ``np.bincount`` gives the same bits but overflows to
    inf silently.
    """
    out = model._rates @ p
    if model._resets:
        src, dst = moves
        node0 = p[0]
        jump = np.zeros(model.dim)
        np.add.at(jump, dst, node0[src])
        g = model._g
        out[0] += _kernels.lindblad_rhs_kernel(jump, g, g, node0)
    return out


@dataclass
class IntegrationResult:
    """How a fixed-step integration run ended, and its samples."""

    time: float
    steps: int
    #: True when the stopping rule ‖rhs‖_F < stop_tol fired before max_time.
    stationary: bool
    rhs_norm: float
    #: (time, node marginals) pairs: at t = 0, every ``observe_every``, and
    #: at the final step.
    samples: list[tuple[float, np.ndarray]]


def integrate(
    model: LindbladModel,
    rho0,
    dt: float = 0.01,
    stop_tol: float = 1e-8,
    max_time: float = 500.0,
    observe_every: float = 1.0,
) -> IntegrationResult:
    """March the master equation to stationarity with classical RK4 steps.

    ``rho0`` is (N, d, d) lab-frame node blocks, lowered into the model's
    frame once, where it must be diagonal (every basis state at any register
    is).  With no coherence, the state is its real (N, d) frame diagonal p,
    and ‖rhs‖_F of p is that of the whole state.  Its trace is renormalized
    whenever it drifts from 1 by more than ``RENORM_TOL``.  Its
    ``node_marginals`` are sampled at t = 0 and then every
    ``round(observe_every/dt)`` steps, plus at the final step when it is
    off that stride.  The generator is linear, so its fixed points are those
    of the RK4 map, and the step size changes the path, not the limit.

    RK4 is stable while ``dt`` times the generator's spectral radius stays
    below 2.785: up to 0.705 on toffoli, whose path Laplacian reaches −3.95
    (−4 in the limit).  The resets add the popcount of the input to node
    0's rate and lower the limit: 0.701 for qft3 from 110, 0.619 for qft4
    from 1011.  Above it the state grows, hidden by the renormalization
    until a step's total trace is not finite and positive, or an operation
    overflows, divides by zero or is invalid: that raises
    ``ArithmeticError("RK4 diverged at step n: ...")``, naming the step and
    ``dt``.  A run that ends first returns marginals that may lie outside
    [0, 1].
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
    p = _frame_diagonal(model, rho0)
    moves = _reset_moves(model)
    rhs = lambda x: _rhs(model, x, moves)

    samples = [(0.0, node_marginals(p))]
    stride = max(1, round(observe_every / dt))
    stationary = False
    rhs_norm = math.nan
    steps = 0
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for n in range(n_steps):
            try:
                k1 = rhs(p)
                rhs_norm = frobenius(k1)
                if rhs_norm < stop_tol:
                    stationary = True
                    break
                k2 = rhs(p + (0.5 * dt) * k1)
                k3 = rhs(p + (0.5 * dt) * k2)
                k4 = rhs(p + dt * k3)
                p = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                tr = np.cumsum(np.cumsum(p, axis=1)[:, -1])[-1]  # as the marginals
            except FloatingPointError as exc:
                raise ArithmeticError(
                    f"RK4 diverged at step {n + 1}: {exc} (dt = {dt:g})"
                ) from exc
            if not (math.isfinite(tr) and tr > 0):
                raise ArithmeticError(
                    f"RK4 diverged at step {n + 1}: total trace {tr:g} (dt = {dt:g})"
                )
            if abs(tr - 1.0) > RENORM_TOL:
                p = p * (1.0 / tr)  # as numpy divides a complex array by a real
            steps = n + 1
            if steps % stride == 0:
                samples.append((steps * dt, node_marginals(p)))
    if not stationary:
        rhs_norm = frobenius(rhs(p))
        stationary = rhs_norm < stop_tol
    if steps % stride != 0:
        samples.append((steps * dt, node_marginals(p)))
    return IntegrationResult(
        time=steps * dt, steps=steps, stationary=stationary, rhs_norm=rhs_norm,
        samples=samples,
    )


def node_marginals(p) -> np.ndarray:
    """Population of each chain register: the sequential sum of its row of
    the (N, d) frame diagonal, the bits of the trace of its block."""
    p = np.asarray(p)
    if p.ndim != 2:
        raise ShapeError(f"p must be (N, d) frame diagonals, got shape {p.shape}")
    return np.cumsum(p, axis=1)[:, -1].copy()  # not a view of the (N, d) sums
