"""Canonical dissipative quantum computing on the chain of a circuit.

Purely dissipative master equation dρ/dt = Σ_k L_k ρ L_k† − ½{L_k†L_k, ρ}
with jump operators built from the circuit unitaries: the pair of registers
(t−1, t) is coupled by the Hermitian operator U_t ⊗ |t⟩⟨t−1| + U_t† ⊗
|t−1⟩⟨t|, so hopping forward applies the next gate and hopping backward
undoes it.  Optional reset jumps lower each qubit inside register 0.

These jumps map a state that is block diagonal in the register index to one
that is again block diagonal, so the state is stored as stacked (N, d, d)
node blocks.  It is integrated in the history-state frame W_0 = I,
W_t = U_t W_{t−1}, on the blocks ρ̃_t = W_t† ρ_t W_t.  There both halves of
every register jump are the identity, so the hops move ρ̃_{t−1} to ρ̃_t and
back at unit rate: one real (N, N) generator, the path-graph Laplacian,
acting on every block entry alike.  The resets keep their lab-frame form,
since W_0 = I: lowering qubit q moves the |1⟩⟨1| sub-block of that qubit in
ρ̃_0 to |0⟩⟨0|, and its damping −½σ⁻†σ⁻ is diagonal, so the damping of all
resets is G = −½·diag(popcount), which ``lindblad_rhs_kernel`` applies as a
scaling of the rows and columns of ρ̃_0.
``integrate`` takes and gives lab-frame blocks ρ_t = W_t ρ̃_t W_t†; the
model holds the slices, and a lift or lowering rebuilds the frames from
them one at a time.  The node populations are traces, which the frame does
not change, so ``integrate`` samples them from the frame blocks and lifts
the state once, at the end.  The integrator is a fixed-step classical
Runge-Kutta scheme.
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
from .walk import BlockState

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

#: Slack of the unit-trace and Hermiticity checks on an input state; looser
#: than ``TOL``, since ``integrate`` symmetrizes and renormalizes it anyway.
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
    at a time, by each lift and lowering, and never stored.  ``_resets`` is
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


def _adjoint(blocks) -> np.ndarray:
    return blocks.conj().transpose(0, 2, 1)


def _history_frames(model: LindbladModel):
    """W_0 = I, then W_t = U_t W_{t−1}, one frame at a time."""
    eye = np.eye(model.dim, dtype=np.complex128)
    return accumulate(model._unitaries, lambda w, u: u @ w, initial=eye)


def _lift(model: LindbladModel, blocks) -> np.ndarray:
    """Frame blocks ρ̃_n to lab blocks W_n ρ̃_n W_n†."""
    out = np.empty_like(blocks)
    for t, w in enumerate(_history_frames(model)):
        out[t] = w @ blocks[t] @ w.conj().T
    return out


def _lower(model: LindbladModel, blocks) -> np.ndarray:
    """Lab blocks ρ_n to frame blocks W_n† ρ_n W_n."""
    out = np.empty_like(blocks)
    for t, w in enumerate(_history_frames(model)):
        out[t] = w.conj().T @ blocks[t] @ w
    return out


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
    """The generator on frame blocks: the hops as one real product of the
    path Laplacian on the (N, 2d²) float view, plus the resets on node 0.

    Lowering qubit q moves the [1, 1] sub-block of its axis pair to the
    [0, 0] one; the moves are summed from zeros in qubit order, the bits of
    the sum of σ⁻ ρ̃_0 σ⁺ over the qubits.
    """
    flat = blocks.reshape(model.num_nodes, -1).view(np.float64)
    out = (model._rates @ flat).view(np.complex128).reshape(blocks.shape)
    if model._resets:
        node0 = blocks[:1]
        jump = np.zeros_like(node0)
        for q in range(1, model._resets + 1):
            axes = (2 ** (q - 1), 2, model.dim >> q) * 2
            jump.reshape(axes)[:, 0, :, :, 0] += node0.reshape(axes)[:, 1, :, :, 1]
        # G is real and diagonal, so G† = G: a column scales rows, a row columns
        g = model._g
        out[:1] += _kernels.lindblad_rhs_kernel(jump, g[:, None], g[None, :], node0)
    return out


@dataclass
class IntegrationResult:
    """Final state of a fixed-step integration run, and its samples."""

    #: The final (N, d, d) node blocks, in the lab frame.
    rho: np.ndarray
    time: float
    steps: int
    #: True when the stopping rule ‖rhs‖_F < stop_tol fired before max_time.
    stationary: bool
    rhs_norm: float
    #: (time, node marginals) pairs, read as the traces of the frame blocks:
    #: at t = 0, every ``observe_every``, and at the final step.
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

    ``rho0`` and the state are (N, d, d) node blocks.  The state is lowered
    into the model's frame once and carried there, re-Hermitized each step
    and its trace renormalized whenever the drift exceeds ``RENORM_TOL``; it
    is lifted to the lab frame once, for the result.  Both rebuild the
    frames from the slices.  Its ``node_marginals`` are sampled in the
    frame, where they equal the lab-frame ones up to rounding, at t = 0 and
    then every ``round(observe_every/dt)`` steps, plus at the final step
    when it is off that stride.  Because the generator is linear, its fixed
    points are fixed points of the RK4 map as well, so the step size affects
    transient rates but not the stationary state the run converges to.  A
    ``dt`` above RK4's stability limit (about 0.70 on a chain, whose path
    Laplacian reaches −4) makes the state grow: a step whose total trace is
    not finite and positive, or any floating-point overflow, division by
    zero or invalid operation, raises ``ArithmeticError("RK4 diverged at
    step n: ...")``, which names the step and ``dt``.
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

    samples = [(0.0, node_marginals(rho))]
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
            if steps % stride == 0:
                samples.append((steps * dt, node_marginals(rho)))
    if not stationary:
        rhs_norm = frobenius(rhs(rho))
        stationary = rhs_norm < stop_tol
    if steps % stride != 0:
        samples.append((steps * dt, node_marginals(rho)))
    return IntegrationResult(
        rho=_lift(model, rho), time=steps * dt, steps=steps, stationary=stationary,
        rhs_norm=rhs_norm, samples=samples,
    )


def node_marginals(rho) -> np.ndarray:
    """Population of each chain register: the trace of its block."""
    return BlockState(rho).probabilities()
