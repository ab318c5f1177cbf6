"""Open quantum walks: model, one-step CP map, chain builders, convergence.

A walk lives on a finite graph.  Each directed edge (source j, target i)
carries a coin operator B acting on the internal Hilbert space, subject to
the per-source normalization sum_i B†B = I.  States are block diagonal over
nodes, one unnormalized density block per node, and one step maps block i to
sum_j B_{j->i} ρ_j B_{j->i}†.

The chain builder turns a circuit U_1..U_T into a (T+1)-node walk whose
forward hops apply the next gate with amplitude √ω and whose backward hops
undo the previous gate with amplitude √λ, λ = 1 − ω.  Because every coin is
a scalar multiple of a unitary, node populations follow a classical
birth-death chain, which this module also provides, together with its
geometric stationary distribution.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels
from .circuits import Circuit, circuit_unitaries
from .config import TOL
from .errors import DomainError, ShapeError
from .linalg import as_matrix, dagger, frobenius, is_hermitian, is_unitary, psd_check

__all__ = [
    "ChainParams",
    "OpenQuantumWalk",
    "BlockState",
    "Violation",
    "ConvergenceReport",
    "validate",
    "step",
    "build_dqc_chain",
    "two_node_gate_walk",
    "classical_marginal_step",
    "analytic_chain_steady",
    "run_until_converged",
    "conditional_state",
    "block_diff_norm",
]


@dataclass(frozen=True)
class ChainParams:
    """Forward weight ω and backward weight λ = 1 − ω of a chain walk.

    ω must lie in (0, 1]; ω = 1 is the absorbing zero-temperature sweep.
    """

    omega: float

    def __post_init__(self):
        if not (0.0 < self.omega <= 1.0):
            raise DomainError(f"omega must be in (0, 1], got {self.omega}")

    @property
    def lam(self) -> float:
        return 1.0 - self.omega


def edge_arrays(num_nodes: int, dim: int, edges):
    """Check (source, target, coin) triples and stack them as the src, dst,
    coin and coin-dagger arrays the step kernel takes.

    The edges are stored in scatter order: the k-th edge into each target,
    counted in the given order, joins run k, and each run is sorted by
    target.  ``step_blocks`` then makes one vectorized add per run, as many
    as the largest in-degree, and each target still sums its terms in the
    given order.  The coin stack is read-only.  Both models store their
    edges this way.
    """
    if num_nodes < 1 or dim < 1:
        raise DomainError("num_nodes and dim must be >= 1")
    src, dst, coins, run = [], [], [], []
    in_degree = Counter()
    for s, d, op in edges:
        s, d = int(s), int(d)
        if not (0 <= s < num_nodes and 0 <= d < num_nodes):
            raise DomainError(f"edge ({s}, {d}) out of range")
        op = as_matrix(op)
        if op.shape != (dim, dim):
            raise ShapeError(
                f"coin for edge ({s}, {d}) has shape {op.shape}, expected ({dim}, {dim})"
            )
        src.append(s)
        dst.append(d)
        coins.append(op)
        run.append(in_degree[d])
        in_degree[d] += 1
    order = np.lexsort((dst, run))
    b_ops = np.array(coins, dtype=np.complex128).reshape(-1, dim, dim)[order]
    b_ops.flags.writeable = False
    b_dag = np.ascontiguousarray(b_ops.conj().transpose(0, 2, 1))
    src, dst = (np.array(nodes, dtype=np.int64)[order] for nodes in (src, dst))
    return src, dst, b_ops, b_dag


class OpenQuantumWalk:
    """Finite-graph walk defined by its keyed coin table.

    Parameters
    ----------
    num_nodes:
        Number of graph vertices, labeled 0..num_nodes-1.
    dim:
        Dimension of the internal Hilbert space.
    transitions:
        Mapping (source, target) -> dim x dim coin operator.

    Instances are immutable after construction and safe to share across
    threads.  The edge table is stored once, as stacked source, target and
    coin arrays in the scatter order of ``edge_arrays``, which is the form
    the step kernel takes.
    """

    def __init__(self, num_nodes: int, dim: int, transitions):
        table = {(int(s), int(d)): op for (s, d), op in transitions.items()}
        self._src, self._dst, self._b_ops, self._b_dag = edge_arrays(
            num_nodes, dim, [(s, d, table[s, d]) for s, d in sorted(table)]
        )
        self.num_nodes = int(num_nodes)
        self.dim = int(dim)

    @property
    def transitions(self) -> dict:
        """Read-only views of the coins, keyed (source, target), in key order."""
        table = {
            (int(s), int(d)): op for s, d, op in zip(self._src, self._dst, self._b_ops)
        }
        return dict(sorted(table.items()))

    def __repr__(self):
        return (
            f"OpenQuantumWalk(num_nodes={self.num_nodes}, dim={self.dim}, "
            f"edges={len(self._src)})"
        )


class BlockState:
    """Walker state: one unnormalized density block per node, stacked (N, d, d)."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        blocks = np.ascontiguousarray(blocks, dtype=np.complex128)
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
            raise ShapeError(f"blocks must be (N, d, d), got {blocks.shape}")
        self.blocks = blocks

    @classmethod
    def pure(cls, num_nodes: int, dim: int, node: int, psi) -> "BlockState":
        """All population at one node, in the pure internal state psi."""
        psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
        if psi.shape[0] != dim:
            raise ShapeError(f"psi has dimension {psi.shape[0]}, expected {dim}")
        norm = np.linalg.norm(psi)
        if norm == 0:
            raise DomainError("psi must be non-zero")
        psi = psi / norm
        if not 0 <= node < num_nodes:
            raise DomainError(f"node {node} out of range")
        blocks = np.zeros((num_nodes, dim, dim), dtype=np.complex128)
        blocks[node] = np.outer(psi, psi.conj())
        return cls(blocks)

    @property
    def num_nodes(self) -> int:
        return self.blocks.shape[0]

    @property
    def dim(self) -> int:
        return self.blocks.shape[1]

    def probabilities(self) -> np.ndarray:
        """Node-label measurement distribution: Tr of each block."""
        return np.einsum("nii->n", self.blocks).real.copy()

    def total_trace(self) -> float:
        return float(self.probabilities().sum())


def validate_state(state: BlockState, tol: float = TOL.trace) -> None:
    """Raise unless the block state is Hermitian, PSD, and unit total trace."""
    if abs(state.total_trace() - 1.0) > tol:
        raise DomainError(f"total trace {state.total_trace()} is not 1")
    for i in range(state.num_nodes):
        b = state.blocks[i]
        if not is_hermitian(b):
            raise DomainError(f"block {i} is not Hermitian")
        if not psd_check(b):
            raise DomainError(f"block {i} is not positive semidefinite")


class Violation(NamedTuple):
    """One failed per-source normalization check."""

    source: int
    residual: float


def validate(walk: OpenQuantumWalk, tol: float = TOL.walk_norm) -> list[Violation]:
    """Check sum_i B†B = I at every source; violations are returned, not raised."""
    gram = _kernels.source_gram(
        walk._b_ops, walk._b_dag, walk._src, walk._dst, walk.num_nodes
    )
    eye = np.eye(walk.dim)
    out = []
    for j in range(walk.num_nodes):
        residual = frobenius(gram[j] - eye)
        if residual > tol:
            out.append(Violation(source=j, residual=residual))
    return out


def step(walk: OpenQuantumWalk, state: BlockState) -> BlockState:
    """One global CP-map step on a block state."""
    if state.blocks.shape != (walk.num_nodes, walk.dim, walk.dim):
        raise ShapeError(
            f"state shape {state.blocks.shape} does not match walk "
            f"({walk.num_nodes}, {walk.dim}, {walk.dim})"
        )
    new = _kernels.step_blocks(
        walk._b_ops, walk._b_dag, walk._src, walk._dst, state.blocks
    )
    return BlockState(new)


def build_dqc_chain(circuit: Circuit, params: ChainParams) -> OpenQuantumWalk:
    """Compile a circuit into its dissipative chain walk.

    Nodes 0..T are time registers.  Interior node t hops forward applying
    U_{t+1} with amplitude √ω and backward undoing U_t with amplitude √λ;
    node 0 backs onto itself with √λ·I and node T self-loops with √ω·I, so
    every source satisfies the normalization exactly.
    """
    return _chain_walk(circuit_unitaries(circuit), params)


def two_node_gate_walk(u, params: ChainParams) -> OpenQuantumWalk:
    """The elementary single-gate walk on two nodes."""
    u = as_matrix(u)
    if not is_unitary(u, 1e-10):
        raise DomainError("coin matrix must be unitary within 1e-10")
    return _chain_walk([u], params)


def _chain_walk(unitaries, params: ChainParams) -> OpenQuantumWalk:
    """The (T+1)-node chain walk over U_1..U_T described in build_dqc_chain."""
    big_t = len(unitaries)
    dim = unitaries[0].shape[0]
    sqrt_w = math.sqrt(params.omega)
    sqrt_l = math.sqrt(params.lam)
    eye = np.eye(dim, dtype=np.complex128)
    table = {(0, 0): sqrt_l * eye, (big_t, big_t): sqrt_w * eye}
    for t, u in enumerate(unitaries, start=1):
        table[(t - 1, t)] = sqrt_w * u
        table[(t, t - 1)] = sqrt_l * dagger(u)
    return OpenQuantumWalk(big_t + 1, dim, table)


def classical_marginal_step(params: ChainParams, big_t: int, p) -> np.ndarray:
    """One step of the node-population birth-death chain of a length-T chain walk."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (big_t + 1,):
        raise ShapeError(f"p must have {big_t + 1} entries, got shape {p.shape}")
    out = np.zeros_like(p)
    out[:-1] += params.lam * p[1:]
    out[1:] += params.omega * p[:-1]
    out[0] += params.lam * p[0]
    out[-1] += params.omega * p[-1]
    return out


def analytic_chain_steady(params: ChainParams, big_t: int) -> np.ndarray:
    """Stationary node distribution of the chain: uniform at ω = 1/2, else
    geometric with ratio r = ω/λ by detailed balance.

    Weights are normalized from log space so large r^T cannot overflow.
    """
    if not (0.0 < params.omega < 1.0):
        raise DomainError("analytic steady state requires omega in (0, 1)")
    log_r = math.log(params.omega) - math.log(params.lam)
    log_w = np.arange(big_t + 1) * log_r
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def conditional_state(state: BlockState, node: int) -> np.ndarray:
    """Normalized density matrix at one node: ρ_node / Tr ρ_node."""
    if not 0 <= node < state.num_nodes:
        raise DomainError(f"node {node} out of range")
    p = float(np.trace(state.blocks[node]).real)
    if p <= TOL.zero_probability:
        raise DomainError(f"node {node} has zero probability")
    return state.blocks[node] / p


def block_diff_norm(a: BlockState, b: BlockState) -> float:
    """Sum over nodes of trace norms of block differences.

    Twice the trace distance between the two block-diagonal states; this is
    the convergence metric of the engine.
    """
    if a.blocks.shape != b.blocks.shape:
        raise ShapeError("block states have different shapes")
    return _kernels.stacked_trace_norm(a.blocks - b.blocks)


@dataclass
class ConvergenceReport:
    """Outcome of an iterate-to-steady-state run."""

    steps: int
    converged: bool
    #: Row n is the node distribution after n steps (row 0 = initial).
    history: np.ndarray
    final_detection: float
    final_fidelity: float
    final_state: BlockState = field(repr=False)


def run_until_converged(
    walk: OpenQuantumWalk,
    init: BlockState,
    tol: float = 1e-7,
    max_steps: int = 100_000,
    target_node: int | None = None,
    target_state=None,
) -> ConvergenceReport:
    """Iterate the walk until consecutive states differ by less than tol.

    The distance is the summed per-block trace norm, which upper-bounds any
    measurement-probability change.  It is computed only on steps where the
    change of the node distribution does not already exceed ``tol``: that
    change bounds the distance from below, so on the other steps the run
    cannot converge, and the result is the same as computing it every step.
    The node distribution is recorded every step; exhausting ``max_steps``
    yields ``converged=False`` rather than an exception.

    ``final_detection`` is the population of ``target_node`` (default: the
    last node) and ``final_fidelity`` is the overlap of that node's
    normalized block with ``target_state`` (NaN when no target is supplied).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    if max_steps < 1:
        raise DomainError(f"max_steps must be >= 1, got {max_steps}")
    validate_state(init)
    if target_node is None:
        target_node = walk.num_nodes - 1
    if not 0 <= target_node < walk.num_nodes:
        raise DomainError(f"target node {target_node} out of range")

    # |Tr Δρ_n| ≤ ‖Δρ_n‖₁ for each block, so the population change
    # ``moved`` = Σ_n |Δp_n| bounds the trace-norm distance from below, and a
    # step whose ``moved`` exceeds tol by ``margin`` cannot converge.  The
    # margin covers rounding.  Absolute part: each trace sums d diagonal
    # entries of a PSD block, and those entries total 1 over all blocks, so
    # the traces of both states err by at most 2dε in all.  Relative part:
    # eigvalsh is backward stable, so its sum of |eigenvalues| errs by a
    # small polynomial in d times ε relative to ‖Δρ‖₁, and the sums over N
    # nodes by N·ε; for any dense d and N both lie far below 1e-6.
    # So with ``margin`` = tol·1e-6 + 64dε every skipped step would have
    # computed a distance of at least tol: the decision, the step count, the
    # history and the final state are those of computing it every step.
    margin = tol * 1e-6 + 64 * walk.dim * np.finfo(np.float64).eps
    history = [init.probabilities()]
    prev = init
    converged = False
    steps = 0
    for n in range(1, max_steps + 1):
        cur = step(walk, prev)
        probs = cur.probabilities()
        if abs(probs.sum() - 1.0) > TOL.trace:
            raise ArithmeticError(
                f"trace drifted to {probs.sum()} at step {n}; walk is not trace preserving"
            )
        moved = float(np.abs(probs - history[-1]).sum())
        history.append(probs)
        steps = n
        converged = moved <= tol + margin and block_diff_norm(cur, prev) < tol
        prev = cur
        if converged:
            break

    final_detection = float(history[-1][target_node])
    if target_state is not None and final_detection > TOL.zero_probability:
        psi = np.asarray(target_state, dtype=np.complex128).reshape(-1)
        rho = conditional_state(prev, target_node)
        final_fidelity = float((psi.conj() @ rho @ psi).real)
    else:
        # undefined without a target, or when no probability has arrived yet
        final_fidelity = math.nan
    return ConvergenceReport(
        steps=steps,
        converged=converged,
        history=np.array(history),
        final_detection=final_detection,
        final_fidelity=final_fidelity,
        final_state=prev,
    )
