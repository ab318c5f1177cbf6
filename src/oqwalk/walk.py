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
geometric stationary distribution.  Two functions use this structure:
``run_chain`` iterates the populations as a walk with 1×1 coins and applies
the circuit to the input state once, and ``sweep_chain`` advances the
populations of a whole ω grid in lockstep with the same arithmetic, in
blocks of steps whose drift and convergence checks run once per block on a
buffer of bounded size.

The engines return what they measure (steps, population history, detection
at the last node, final state), and ``validate`` the normalization residual
of every source; judging them is left to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import _kernels
from .circuits import Circuit, circuit_unitaries
from .config import TOL
from .errors import DomainError, ShapeError
from .linalg import as_matrix, frobenius, is_unitary

__all__ = [
    "ChainParams",
    "OpenQuantumWalk",
    "BlockState",
    "ConvergenceReport",
    "validate",
    "step",
    "ChainWalk",
    "build_dqc_chain",
    "two_node_gate_walk",
    "classical_marginal_step",
    "analytic_chain_steady",
    "run_until_converged",
    "run_chain",
    "SweepRow",
    "sweep_chain",
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


def _coin_table(src, dst, b_ops):
    """The src, dst, coin and coin-dagger arrays the step kernel takes, from
    in-range edge arrays and a new (E, d, d) coin stack: raise on the first
    edge whose coin is not finite, make the stack read-only and stack its
    daggers."""
    finite = np.isfinite(b_ops).all(axis=(1, 2))
    if not finite.all():
        e = int(np.argmin(finite))
        raise DomainError(f"coin for edge ({src[e]}, {dst[e]}) contains NaN or Inf entries")
    b_ops.flags.writeable = False
    # conjugating into a C-ordered buffer gives the bits of a copy of
    # b_ops.conj().transpose(0, 2, 1) at a fraction of that copy's cost
    b_dag = np.empty_like(b_ops)
    np.conjugate(b_ops.transpose(0, 2, 1), out=b_dag)
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
    threads.  The edge table is checked and stored once, in key order, as
    the stacked source, target, coin and coin-dagger arrays that the step
    kernel takes; the coin stack is read-only.
    """

    def __init__(self, num_nodes: int, dim: int, transitions):
        if num_nodes < 1 or dim < 1:
            raise DomainError("num_nodes and dim must be >= 1")
        table = {(int(s), int(d)): op for (s, d), op in transitions.items()}
        keys = sorted(table)
        for s, d in keys:
            if not (0 <= s < num_nodes and 0 <= d < num_nodes):
                raise DomainError(f"edge ({s}, {d}) out of range")
            if np.shape(table[s, d]) != (dim, dim):
                raise ShapeError(
                    f"coin for edge ({s}, {d}) has shape {np.shape(table[s, d])}, "
                    f"expected ({dim}, {dim})"
                )
        self._src, self._dst, self._b_ops, self._b_dag = _coin_table(
            np.array([s for s, _ in keys], dtype=np.int64),
            np.array([d for _, d in keys], dtype=np.int64),
            np.array([table[k] for k in keys], dtype=np.complex128).reshape(-1, dim, dim),
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


def _unit_vector(psi, dim: int) -> np.ndarray:
    """psi as a normalized complex vector of dimension dim."""
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if psi.shape[0] != dim:
        raise ShapeError(f"psi has dimension {psi.shape[0]}, expected {dim}")
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise DomainError("psi must be non-zero")
    return psi / norm


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
        psi = _unit_vector(psi, dim)
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


def validate_state(state: BlockState) -> None:
    """Raise unless every block is finite, Hermitian and PSD and the total
    trace is 1; a bad block is named by its index.

    The skew of the whole stack bounds the skew of each block, so the blocks
    are searched one by one only when the stack's skew exceeds the
    Hermitian tolerance, and positivity is one batched ``eigvalsh``.
    """
    blocks = state.blocks
    finite = np.isfinite(blocks).all(axis=(1, 2))
    if not finite.all():
        raise DomainError(f"block {int(np.argmin(finite))} contains NaN or Inf entries")
    if abs(state.total_trace() - 1.0) > TOL.trace:
        raise DomainError(f"total trace {state.total_trace()} is not 1")
    skew = blocks - blocks.conj().transpose(0, 2, 1)
    if frobenius(skew) > TOL.hermitian:
        for i, block_skew in enumerate(skew):
            if frobenius(block_skew) > TOL.hermitian:
                raise DomainError(f"block {i} is not Hermitian")
    negative = np.linalg.eigvalsh(blocks)[:, 0] < -TOL.psd
    if negative.any():
        raise DomainError(f"block {int(np.argmax(negative))} is not positive semidefinite")


def validate(walk: OpenQuantumWalk) -> np.ndarray:
    """The residual ‖sum_i B†B − I‖_F of the normalization at every source,
    indexed by node; a node without out-edges has residual √d."""
    gram = _kernels.source_gram(
        walk._b_ops, walk._b_dag, walk._src, walk._dst, walk.num_nodes
    )
    eye = np.eye(walk.dim)
    return np.array([frobenius(g - eye) for g in gram])


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


class ChainWalk(OpenQuantumWalk):
    """The (T+1)-node chain walk over U_1..U_T described in build_dqc_chain.

    It is an ordinary ``OpenQuantumWalk`` with the same edge table; it also
    keeps the ``params`` and the ``unitaries`` it was built from, which
    ``run_chain`` reads.

    The table is written directly in key order, the order
    ``OpenQuantumWalk`` sorts a dict into: node t's backward edge (to
    max(t − 1, 0)) then its forward edge (to min(t + 1, T)).  So the coin
    stack is √λ·I, then √ω·U_t and √λ·U_t† in turn, then √ω·I, computed
    from the stacked unitaries with the products of the keyed coins.
    """

    def __init__(self, unitaries, params: ChainParams):
        self.params = params
        self.unitaries = tuple(unitaries)
        big_t = len(self.unitaries)
        dim = np.shape(self.unitaries[0])[0]
        for t, u in enumerate(self.unitaries, start=1):
            if np.shape(u) != (dim, dim):
                raise ShapeError(f"U_{t} has shape {np.shape(u)}, expected ({dim}, {dim})")
        us = np.array(self.unitaries, dtype=np.complex128)
        sqrt_w = math.sqrt(params.omega)
        sqrt_l = math.sqrt(params.lam)
        eye = np.eye(dim, dtype=np.complex128)
        b_ops = np.empty((2 * big_t + 2, dim, dim), dtype=np.complex128)
        back, forward = b_ops[0::2], b_ops[1::2]
        back[0] = sqrt_l * eye
        # an infinite entry gives NaN here, which the finiteness check names
        with np.errstate(invalid="ignore"):
            np.multiply(sqrt_l, us.conj().transpose(0, 2, 1), out=back[1:])
            np.multiply(sqrt_w, us, out=forward[:-1])
        forward[-1] = sqrt_w * eye
        nodes = np.arange(big_t + 1)
        src = np.repeat(nodes, 2)
        dst = np.stack([np.maximum(nodes - 1, 0), np.minimum(nodes + 1, big_t)], axis=1)
        self._src, self._dst, self._b_ops, self._b_dag = _coin_table(src, dst.ravel(), b_ops)
        self.num_nodes = big_t + 1
        self.dim = dim


def build_dqc_chain(circuit: Circuit, params: ChainParams) -> ChainWalk:
    """Compile a circuit into its dissipative chain walk.

    Nodes 0..T are time registers.  Interior node t hops forward applying
    U_{t+1} with amplitude √ω and backward undoing U_t with amplitude √λ;
    node 0 backs onto itself with √λ·I and node T self-loops with √ω·I, so
    every source satisfies the normalization exactly.
    """
    return ChainWalk(circuit_unitaries(circuit), params)


def two_node_gate_walk(u, params: ChainParams) -> ChainWalk:
    """The elementary single-gate walk on two nodes."""
    u = as_matrix(u)
    if not is_unitary(u):
        raise DomainError(f"coin matrix must be unitary within {TOL.unitary:g}")
    return ChainWalk([u], params)


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
    final_state: BlockState = field(repr=False)


def run_until_converged(
    walk: OpenQuantumWalk,
    init: BlockState,
    tol: float = 1e-7,
    max_steps: int = 100_000,
) -> ConvergenceReport:
    """Iterate the walk until consecutive states differ by less than tol.

    The distance is the summed per-block trace norm, which upper-bounds any
    measurement-probability change.  It is computed only on steps where the
    change of the node distribution does not already exceed ``tol``: that
    change bounds the distance from below, so on the other steps the run
    cannot converge, and the result is the same as computing it every step.
    The node distribution is recorded every step; exhausting ``max_steps``
    yields ``converged=False`` rather than an exception.
    ``final_detection`` is the population of the last node.
    """
    _check_run_limits(tol, max_steps)
    validate_state(init)

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

    return ConvergenceReport(
        steps=steps,
        converged=converged,
        history=np.array(history),
        final_detection=float(history[-1][-1]),
        final_state=prev,
    )


def _check_run_limits(tol: float, max_steps: int) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    if max_steps < 1:
        raise DomainError(f"max_steps must be >= 1, got {max_steps}")


class SweepRow(NamedTuple):
    """The summary of one chain run of a sweep."""

    steps: int
    converged: bool
    final_detection: float


#: Steps per block; of 16, 32, 64 and 128, 64 swept the built-in grids fastest.
_BLOCK_STEPS = 64
#: Floats a block buffer may hold (1 MB), so its memory never grows with B·K·T.
_BLOCK_FLOATS = 2**17


def sweep_chain(
    big_t: int, omegas, tol: float = 1e-7, max_steps: int = 100_000
) -> list[SweepRow]:
    """``run_chain``'s steps, convergence and detection for every ω of a
    grid, on a chain of T slices, with all K chains advanced in lockstep.

    The node populations of the K chains are one (K, T+1) array, and each
    row leaves it on the step where it converges or reaches ``max_steps``.
    The arithmetic is that of the 1×1 engine, bit for bit: each term is
    (√ω·p)·√ω or (√λ·p)·√λ, as the complex sandwich B ρ B† computes it;
    every node sums exactly two terms, so their order cannot matter; and
    the trace norm of a 1×1 block difference is |Δp|, so the distance is
    ``moved`` = Σ_t |Δp_t| and a row converges when it is below ``tol``.
    The drift check and ``max_steps`` are those of ``run_until_converged``.
    Rows are returned in the order of ``omegas``.

    The rows advance in blocks of B = ``_BLOCK_STEPS`` steps into a
    (B+1, K, T+1) buffer, so the per-step loop is the recurrence alone, in
    place.  After each block, the totals, ``moved`` and each row's first
    converged step are computed for the whole block at once, with the
    summation order of a step-by-step loop.  A drift counts only on steps
    where its row is still live (not converged on an earlier step), so it
    raises at the step, and with the total, of a step-by-step loop.  B is
    shortened so that the last block ends at ``max_steps`` and so that the
    buffer holds at most ``_BLOCK_FLOATS`` floats; a grid too large for
    that runs with B = 1, whose buffer is the two population arrays of a
    step-by-step loop.
    """
    _check_run_limits(tol, max_steps)
    if big_t < 1:
        raise DomainError(f"a chain has at least one slice, got {big_t}")
    params = [ChainParams(w) for w in omegas]
    # Node t receives p[sources[0, t]] with amplitude coef[k, 0, t] (the hop
    # from t − 1, or node 0's self-loop) and p[sources[1, t]] with amplitude
    # coef[k, 1, t] (the hop from t + 1, or node T's self-loop).
    nodes = np.arange(big_t + 1)
    sources = np.array([np.maximum(nodes - 1, 0), np.minimum(nodes + 1, big_t)])
    sqrt_w = np.array([math.sqrt(c.omega) for c in params])
    sqrt_l = np.array([math.sqrt(c.lam) for c in params])
    coef = np.empty((len(params), 2, big_t + 1))
    coef[:, 0], coef[:, 1] = sqrt_w[:, None], sqrt_l[:, None]
    coef[:, 0, 0], coef[:, 1, -1] = sqrt_l, sqrt_w
    rows = np.arange(len(params))
    p = np.zeros((len(params), big_t + 1))
    p[:, 0] = 1.0
    out: list[SweepRow | None] = [None] * len(params)
    scratch = np.empty_like(coef)
    n = 0
    while len(rows) and n < max_steps:
        b = max(1, min(_BLOCK_STEPS, max_steps - n, _BLOCK_FLOATS // p.size - 1))
        buf = np.empty((b + 1, *p.shape))
        buf[0] = p
        terms = scratch[: len(rows)]
        for j in range(b):
            # (coef · p[:, sources]) · coef in place, then the two-term sum
            np.take(buf[j], sources, axis=1, out=terms, mode="clip")
            np.multiply(coef, terms, out=terms)
            np.multiply(terms, coef, out=terms)
            np.add(terms[:, 0], terms[:, 1], out=buf[j + 1])
        # conv[j, i]: row i converges at step n + j + 1; it is live up to
        # its first such step (first[i] = b when it has none in the block)
        conv = np.abs(buf[1:] - buf[:-1]).sum(axis=2) < tol
        first = np.where(conv.any(axis=0), conv.argmax(axis=0), b)
        totals = buf[1:].sum(axis=2)
        drifted = (np.abs(totals - 1.0) > TOL.trace) & (np.arange(b)[:, None] <= first)
        if drifted.any():
            j, i = divmod(int(drifted.argmax()), len(rows))
            raise ArithmeticError(
                f"trace drifted to {totals[j, i]} at step {n + j + 1}; "
                "walk is not trace preserving"
            )
        n += b
        done = (first < b) | (n == max_steps)
        for i in np.flatnonzero(done):
            j = min(int(first[i]), b - 1)
            converged = bool(first[i] < b)
            out[rows[i]] = SweepRow(n - b + j + 1, converged, float(buf[j + 1, i, -1]))
        p = buf[b, ~done]
        if done.any():
            rows, coef = rows[~done], coef[~done]
    return out


def run_chain(
    chain: ChainWalk,
    psi0,
    tol: float = 1e-7,
    max_steps: int = 100_000,
) -> ConvergenceReport:
    """``run_until_converged`` of a chain walk started in psi0 at node 0,
    computed in the history-state frame.

    Every coin is a scalar times a unitary, so block t of the state after
    any number of steps is p_t · v_t v_t†, with v_t = U_t···U_1 ψ0/‖ψ0‖ and
    p the node populations, and the trace-norm distance between two steps
    is Σ_t |Δp_t|.  The populations are therefore iterated by the same
    engine on the chain with 1×1 coins, which keeps its history, stopping
    rule, drift check and ``max_steps``, and the final state is lifted once
    to the lab frame as ``final_state``.  Within rounding (see
    ``run_until_converged``) the report equals that of
    ``run_until_converged`` on the chain itself.
    """
    v = _unit_vector(psi0, chain.dim)
    populations = ChainWalk([np.ones((1, 1))] * len(chain.unitaries), chain.params)
    init = BlockState.pure(chain.num_nodes, 1, 0, [1.0])
    report = run_until_converged(populations, init, tol=tol, max_steps=max_steps)
    vecs = [v]
    for u in chain.unitaries:
        vecs.append(u @ vecs[-1])
    vecs = np.array(vecs)
    p = report.history[-1]
    final = BlockState(p[:, None, None] * vecs[:, :, None] * vecs[:, None, :].conj())
    return replace(report, final_state=final)
