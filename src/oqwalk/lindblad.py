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
coherence in the frame keeps none.  ``integrate`` starts from p itself
and steps it with fixed classical Runge-Kutta steps; the node populations
are its row sums, the traces, which the frame does not change.  A basis
state |x⟩ at register 0, where W_0 = I, is its own frame block, so the
CLI's input is the one-hot row p[0, x] = 1, and no gate enters the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .circuits import Circuit, circuit_unitaries
from .config import TOL
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
    U_1..U_T, the circuit's read-only compiled slices, shared, not copied.
    Nothing in the library reads them: the frame diagonal never does.  The
    benchmark harness still times this compile on the ``lindblad`` run and
    wraps ``lindblad.circuit_unitaries``, so it stays until the harness
    stops requiring it.

    With resets, ``_moves`` is their (src, dst) index list on node 0's row,
    built once here: for each lowered qubit q in order, every x with bit
    d >> q set, and x with that bit cleared.  Each x is the source of one
    move per set bit, so ``_g``, the diagonal of their damping
    G = −½·diag(popcount) as a real vector of length d, is −½ times the
    list's out-degree.  Both are None without resets.
    """

    def __init__(self, circuit: Circuit, include_reset: bool = False):
        self._unitaries = tuple(circuit_unitaries(circuit))
        self.num_nodes, self.dim = len(self._unitaries) + 1, 2**circuit.num_qubits
        self._rates = path_laplacian(self.num_nodes)
        self._moves = self._g = None
        if include_reset:
            bits = self.dim >> np.arange(1, circuit.num_qubits + 1)[:, None]
            x = np.arange(self.dim)
            moved = (x & bits) != 0
            self._moves = np.broadcast_to(x, moved.shape)[moved], (x ^ bits)[moved]
            self._g = -0.5 * moved.sum(axis=0)

    def __repr__(self):
        return (
            f"LindbladModel(num_nodes={self.num_nodes}, dim={self.dim}, "
            f"include_reset={self._moves is not None})"
        )


def build_dqc_lindblad(circuit: Circuit, include_reset: bool = False) -> LindbladModel:
    """The circuit's ``LindbladModel``, with or without the resets."""
    return LindbladModel(circuit, include_reset)


def _rhs(model: LindbladModel, p) -> np.ndarray:
    """The generator on the (N, d) frame diagonal: the hops as one real
    product of the path Laplacian, plus the resets on node 0.

    One ``np.bincount`` sums the probabilities moved by ``model._moves``
    into each target from zero, in list order, so in qubit order.
    """
    out = model._rates @ p
    if model._moves is not None:
        src, dst = model._moves
        node0 = p[0]
        jump = np.bincount(dst, weights=node0[src], minlength=model.dim)
        g = model._g
        out[0] += _kernels.lindblad_rhs_kernel(jump, g, g, node0)
    return out


@dataclass
class IntegrationResult:
    """How a fixed-step integration run ended, and its samples."""

    time: float
    steps: int
    #: True when the stopping rule ‖rhs‖_F < stop_tol fired, on a step
    #: before max_time or on the final state.
    stationary: bool
    #: ‖rhs‖_F of the final state.
    rhs_norm: float
    #: (time, node marginals) pairs: at t = 0, every ``observe_every``, and
    #: at the final step.
    samples: list[tuple[float, np.ndarray]]


def integrate(
    model: LindbladModel,
    p0,
    dt: float = 0.01,
    stop_tol: float = 1e-8,
    max_time: float = 500.0,
    observe_every: float = 1.0,
) -> IntegrationResult:
    """March the master equation to stationarity with classical RK4 steps.

    ``p0`` is the real (N, d) frame diagonal p[t, x] = ⟨x|W_t† ρ_t W_t|x⟩
    of a state without coherence in the frame: finite, of unit total within
    ``TOL.trace``, as ``walk.validate_state`` asks of a block state, and
    with finite node totals, which its t = 0 sample checks.
    ‖rhs‖_F of p is that of the whole state.  Its ``node_marginals`` are
    sampled at t = 0 and then every ``round(observe_every/dt)`` steps, plus
    at the final step when it is off that stride.  The generator is linear,
    so its fixed points are those of the RK4 map, and the step size changes
    the path, not the limit.

    The run is ``stationary`` once ‖rhs‖_F < ``stop_tol``, and that norm
    covers every column of p, not only the marginals.  The marginals relax
    at the path Laplacian's gap 2 − 2cos(π/(T+1)).  With resets, from an
    input of popcount ≥ 1, ‖rhs‖_F decays at 2 − 2cos(π/(2T+3)), the
    smallest rate of the popcount-1 block L_T − E₀₀, under a quarter of
    that, so the run stops over four times later than its marginals settle.

    The generator preserves the total, and nothing rescales it: a step whose
    total is not within ``TOL.trace`` of 1 raises ``ArithmeticError("RK4
    diverged at step n: total trace drifted to ... (dt = ...)")``.  A step
    that overflows leaves a total of inf or nan, so it raises that error at
    that step, as the walk's blocks do.  RK4 is stable while ``dt`` times
    the generator's spectral radius stays below 2.785: up to 0.705 on
    toffoli, 0.701 on qft3 from 110 with resets, which add the input's
    popcount to node 0's rate, and 0.619 on qft4 from 1011.  Below the limit
    the drift is rounding (at most 3.5e-14 over 10^6 steps), but a run may
    still sample marginals outside [0, 1]: RK4 does not keep probabilities
    non-negative.
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
    p = np.asarray(p0, dtype=np.float64)
    shape = (model.num_nodes, model.dim)
    if p.shape != shape:
        raise ShapeError(f"p0 must be a frame diagonal of shape {shape}, got {p.shape}")
    if not np.isfinite(p).all():
        raise DomainError("p0 contains NaN or Inf entries")
    if abs(p.sum() - 1.0) > TOL.trace:
        raise DomainError(f"p0 must have unit total within {TOL.trace:g}")
    stride = max(1, round(observe_every / dt))
    steps = 0
    # a step past the stability limit may overflow: its inf and nan are left
    # to the drift check, as in the walk's blocks
    with np.errstate(over="ignore", invalid="ignore"):
        samples = [(0.0, node_marginals(p))]
        if not np.isfinite(samples[0][1]).all():
            raise DomainError("p0 has a node total that is not finite")
        for n in range(n_steps + 1):
            k1 = _rhs(model, p)
            rhs_norm = frobenius(k1)
            stationary = rhs_norm < stop_tol
            if stationary or n == n_steps:
                break
            k2 = _rhs(model, p + (0.5 * dt) * k1)
            k3 = _rhs(model, p + (0.5 * dt) * k2)
            k4 = _rhs(model, p + dt * k3)
            p = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            tr = p.sum()
            if not abs(tr - 1.0) <= TOL.trace:
                raise ArithmeticError(
                    f"RK4 diverged at step {n + 1}: total trace drifted to {tr:.17g} "
                    f"(dt = {dt:g})"
                )
            steps = n + 1
            if steps % stride == 0:
                samples.append((steps * dt, node_marginals(p)))
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
