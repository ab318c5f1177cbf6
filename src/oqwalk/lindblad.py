"""Canonical dissipative quantum computing on the chain of a circuit.

Purely dissipative master equation dρ/dt = Σ_k L_k ρ L_k† − ½{L_k†L_k, ρ}
with jump operators built from the circuit unitaries: the pair of registers
(t−1, t) is coupled by the Hermitian operator U_t ⊗ |t⟩⟨t−1| + U_t† ⊗
|t−1⟩⟨t|, so hopping forward applies the next gate and hopping backward
undoes it.  Optional reset jumps lower each qubit inside register 0.

These jumps map a state that is block diagonal in the register index to one
that is again block diagonal.  In the history-state frame W_0 = I,
W_t = U_t W_{t−1}, on the blocks ρ̃_t = W_t† ρ_t W_t, both halves of every
register jump are the identity, so the hops move ρ̃_{t−1} to ρ̃_t and back
at unit rate: the path-graph Laplacian L_T, acting on every block entry
alike.  The resets keep their lab-frame form, since W_0 = I: lowering qubit
q moves the diagonal entry of each x with bit q set in ρ̃_0 to that of x
with it cleared, and their damping is −½·diag(popcount).  So the frame
diagonal p[t, x] = ⟨x|ρ̃_t|x⟩ evolves alone, as a real Markov chain, and a
state without coherence in the frame keeps none.

From a basis input x₀ at register 0, where W_0 = I, the resets reach only
the columns s ⊆ x₀, and permuting the k set bits of x₀ maps the chain to
itself, so every column of popcount j evolves alike: the chain lumps
exactly (Kemeny and Snell, "Finite Markov Chains", 1960) to q[t, j], the
common value of those C(k, j) columns, on (T+1)·(k+1) levels, with k = 0
without resets.  At node 0, level j gains (k − j)·q[0, j+1] and loses
j·q[0, j].  ``integrate`` steps q with one precomputed RK4 increment
matrix, and the node populations are Σ_j C(k, j)·q[t, j], the traces,
which the frame does not change.  No gate enters the run.
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
    """The canonical dissipative model of a circuit, lumped for a basis
    input of ``popcount`` set bits: T+1 registers of k+1 levels, with
    k = ``popcount`` with ``include_reset`` and 0 without.

    ``weights`` holds C(k, j), the number of frame-diagonal columns that
    level j stands for.  ``start`` is the read-only (T+1, k+1) lumped state
    of the basis input at register 0, where W_0 = I: its own column, 1 at
    node 0, level k.  ``_generator`` is the real generator Q of the
    flattened state q[t, j] (index t·(k+1) + j): kron(L_T, I) for the hops,
    plus node 0's level block, whose level j gains (k − j)·q[0, j+1] and
    loses j·q[0, j], built by the damping kernel with g = −½j.
    ``_unitaries`` holds U_1..U_T, the circuit's read-only compiled slices,
    shared, not copied.  Nothing in the library reads them: the benchmark
    harness still times this compile on the ``lindblad`` run and wraps
    ``lindblad.circuit_unitaries``, so it stays until the harness stops
    requiring it.
    """

    def __init__(self, circuit: Circuit, include_reset: bool = False, popcount: int = 0):
        if not 0 <= popcount <= circuit.num_qubits:
            raise DomainError(f"popcount must be in 0..{circuit.num_qubits}, got {popcount}")
        self._unitaries = tuple(circuit_unitaries(circuit))
        self.num_nodes = len(self._unitaries) + 1
        self.include_reset = include_reset
        k = popcount if include_reset else 0
        self.weights = np.array([math.comb(k, j) for j in range(k + 1)], dtype=np.float64)
        self.start = np.zeros((self.num_nodes, k + 1))
        self.start[0, k] = 1.0
        self.start.flags.writeable = False
        j = np.arange(k + 1.0)
        g = -0.5 * j
        block = _kernels.lindblad_rhs_kernel(np.diag(k - j[:-1], 1), g[:, None], g[None, :],
                                             np.eye(k + 1))
        self._generator = np.kron(path_laplacian(self.num_nodes), np.eye(k + 1))
        self._generator[: k + 1, : k + 1] += block

    def __repr__(self):
        return (f"LindbladModel(num_nodes={self.num_nodes}, levels={len(self.weights)}, "
                f"include_reset={self.include_reset})")


def build_dqc_lindblad(circuit: Circuit, include_reset: bool = False,
                       popcount: int = 0) -> LindbladModel:
    """The circuit's ``LindbladModel``, with or without the resets, lumped
    for an input of ``popcount`` set bits."""
    return LindbladModel(circuit, include_reset, popcount)


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
    q0,
    dt: float = 0.01,
    stop_tol: float = 1e-8,
    max_time: float = 500.0,
    observe_every: float = 1.0,
) -> IntegrationResult:
    """March the master equation to stationarity with classical RK4 steps.

    ``q0`` is the real lumped state of ``model.start``'s shape, (T+1, k+1):
    q[t, j] is the common frame-diagonal entry ⟨s|W_t† ρ_t W_t|s⟩ of the
    C(k, j) columns of level j, the s ⊆ x₀ of popcount j with resets, x₀
    alone without; ``model.start`` is the basis input's.  It must be
    finite, of unit total Σ C(k, j)·q[t, j] within ``TOL.trace``, as
    ``walk.validate_state`` asks of a block state, and with finite node
    totals, which its t = 0 sample checks.  Its ``node_marginals`` are
    sampled at t = 0 and then every ``round(observe_every/dt)`` steps, plus
    at the final step when it is off that stride.

    The generator Q is linear, so an RK4 step is q += D·q with the increment
    matrix D = A(I + A/2(I + A/3(I + A/4))), A = dt·Q: the degree-4 Taylor
    polynomial of e^A less I.  D is built once per call in ``np.longdouble``
    and rounded once to float64, and stacked over diag(√C(k, j))·Q, so one
    product per step gives both the increment and the right-hand side whose
    2-norm is ‖rhs‖_F of the whole frame diagonal.  Q has at most three
    nonzeros a row, so each product of the build sums only those, and the
    build, like a step, costs O(((T+1)(k+1))²).  The fixed points of the
    RK4 map are those of Q, so the step size changes the path, not the
    limit.

    The run is ``stationary`` once ‖rhs‖_F < ``stop_tol``, and that norm
    covers every column of the frame diagonal, not only the marginals.  The
    marginals relax at the path Laplacian's gap 2 − 2cos(π/(T+1)).  With
    resets, from an input of popcount ≥ 1, ‖rhs‖_F decays at
    2 − 2cos(π/(2T+3)), the smallest rate of the popcount-1 block L_T − E₀₀,
    under a quarter of that, so the run stops over four times later than its
    marginals settle.

    Q preserves the total, and nothing rescales it: a step whose total is
    not within ``TOL.trace`` of 1 raises ``ArithmeticError("RK4 diverged at
    step n: total trace drifted to ... (dt = ...)")``.  A step that
    overflows leaves a total of inf or nan, so it raises that error at that
    step, as the walk's blocks do.  RK4 is stable while ``dt`` times Q's
    spectral radius stays below 2.785: up to 0.705 on toffoli, 0.701 on qft3
    from 110 with resets, which add the input's popcount to node 0's rate,
    and 0.619 on qft4 from 1011.  Below the limit the drift is rounding, but
    a run may still sample marginals outside [0, 1]: RK4 does not keep
    probabilities non-negative.
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
    q = np.array(q0, dtype=np.float64)
    weights, shape = model.weights, model.start.shape
    if q.shape != shape:
        raise ShapeError(f"q0 must be a lumped state of shape {shape}, got {q.shape}")
    if not np.isfinite(q).all():
        raise DomainError("q0 contains NaN or Inf entries")
    if abs(q.sum(axis=0) @ weights - 1.0) > TOL.trace:
        raise DomainError(f"q0 must have unit total within {TOL.trace:g}")
    stride = max(1, round(observe_every / dt))
    steps, size = 0, q.size
    counts = np.tile(weights, model.num_nodes)
    a = dt * model._generator.astype(np.longdouble)
    rows, cols = np.nonzero(model._generator)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    def times(c, x):
        """(A/c)·x, summed over the few nonzeros of each row of A."""
        return np.add.reduceat((a[rows, cols] / c)[:, None] * x[cols], starts)
    eye = np.eye(size, dtype=np.longdouble)
    # a step past the stability limit may overflow: its inf and nan are left
    # to the drift check, as in the walk's blocks
    with np.errstate(over="ignore", invalid="ignore"):
        samples = [(0.0, node_marginals(q, weights))]
        if not np.isfinite(samples[0][1]).all():
            raise DomainError("q0 has a node total that is not finite")
        increment = times(1, eye + times(2, eye + times(3, eye + a / 4)))
        stacked = np.vstack([increment.astype(np.float64),
                             np.sqrt(counts)[:, None] * model._generator])
        flat = q.reshape(-1)
        for n in range(n_steps + 1):
            out = stacked @ flat
            rhs_norm = frobenius(out[size:])
            stationary = rhs_norm < stop_tol
            if stationary or n == n_steps:
                break
            flat += out[:size]
            tr = counts @ flat
            if not abs(tr - 1.0) <= TOL.trace:
                raise ArithmeticError(
                    f"RK4 diverged at step {n + 1}: total trace drifted to {tr:.17g} "
                    f"(dt = {dt:g})"
                )
            steps = n + 1
            if steps % stride == 0:
                samples.append((steps * dt, node_marginals(q, weights)))
    if steps % stride != 0:
        samples.append((steps * dt, node_marginals(q, weights)))
    return IntegrationResult(
        time=steps * dt, steps=steps, stationary=stationary, rhs_norm=rhs_norm,
        samples=samples,
    )


def node_marginals(q, weights) -> np.ndarray:
    """Population of each chain register: Σ_j C(k, j)·q[t, j] over the
    (T+1, k+1) lumped state, with the model's level ``weights`` C(k, j)."""
    q = np.asarray(q)
    if q.ndim != 2:
        raise ShapeError(f"q must be a (T+1, k+1) lumped state, got shape {q.shape}")
    return q @ weights
