"""Open quantum walks: model, one-step CP map, chain walks, convergence.

A walk lives on a finite graph.  Each directed edge (source j, target i)
carries a coin operator B acting on the internal Hilbert space, subject to
the per-source normalization sum_i B†B = I.  States are block diagonal over
nodes, one unnormalized density block per node, and one step maps block i to
sum_j B_{j->i} ρ_j B_{j->i}†.

The chain walk of a circuit U_1..U_T has T+1 nodes; its forward hops apply
the next gate with amplitude √ω and its backward hops undo the previous
gate with amplitude √λ, λ = 1 − ω.  Node t carries just two coins, √λ·U_t†
and √ω·U_{t+1} (U_0 = U_{T+1} = I), so a ``ChainWalk`` is its slices and ω,
never a table of coins.  Every coin is a scalar multiple of a unitary, so
node populations follow a classical birth-death chain, which this module
also provides, together with its geometric stationary distribution.
``validate`` takes each node's residual from its two coins; ``run_chain``
iterates the populations as a walk with 1×1 coins, since node t of the
state is p_t·U_t···U_1 ρ0 (U_t···U_1)† whatever the input ρ0, and never
touches the slices; and ``sweep_chain`` advances the populations of a
whole ω grid in lockstep with the same arithmetic.  Both engines, the
generic ``run_until_converged`` and ``sweep_chain``, advance in blocks of
steps of one rule, with buffers of bounded size, and check drift and
convergence once per block, through one helper, with the outcome of
checking after every step.

The engines return what they measure (steps, population history, detection
at the last node, final state), and ``validate`` the normalization residual
of every node; judging them is left to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels
from .circuits import Circuit, circuit_unitaries
from .config import TOL
from .errors import DomainError, ShapeError
from .linalg import frobenius

__all__ = [
    "ChainParams",
    "OpenQuantumWalk",
    "BlockState",
    "ConvergenceReport",
    "validate",
    "step",
    "ChainWalk",
    "build_dqc_chain",
    "classical_marginal_step",
    "analytic_chain_steady",
    "run_until_converged",
    "run_chain",
    "SweepRow",
    "sweep_chain",
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
    the stacked source, target, coin and coin-dagger arrays, with the
    targets' flat scatter index (``_kernels.scatter_index``), which the step
    kernel takes in place of the targets; the coin stack and the index are
    read-only.  ``run_chain`` builds its 1×1 population walk here; a
    ``ChainWalk`` holds no table.
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
        b_ops = np.array([table[k] for k in keys], dtype=np.complex128).reshape(-1, dim, dim)
        finite = np.isfinite(b_ops).all(axis=(1, 2))
        if not finite.all():
            s, d = keys[int(np.argmin(finite))]
            raise DomainError(f"coin for edge ({s}, {d}) contains NaN or Inf entries")
        self._src = np.array([s for s, _ in keys], dtype=np.int64)
        self._dst = np.array([d for _, d in keys], dtype=np.int64)
        self._scatter = _kernels.scatter_index(self._dst, dim)
        b_ops.flags.writeable = False
        self._b_dag = np.ascontiguousarray(b_ops.conj().transpose(0, 2, 1))
        self._b_ops = b_ops
        self.num_nodes = int(num_nodes)
        self.dim = int(dim)

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
        """All population at one node, in the pure internal state psi/‖psi‖."""
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


def step(walk: OpenQuantumWalk, state: BlockState) -> BlockState:
    """One global CP-map step on a block state."""
    if state.blocks.shape != (walk.num_nodes, walk.dim, walk.dim):
        raise ShapeError(
            f"state shape {state.blocks.shape} does not match walk "
            f"({walk.num_nodes}, {walk.dim}, {walk.dim})"
        )
    new = _kernels.step_blocks(
        walk._b_ops, walk._b_dag, walk._src, walk._scatter, state.blocks
    )
    return BlockState(new)


@dataclass(frozen=True, eq=False, repr=False)
class ChainWalk:
    """The (T+1)-node chain walk over U_1..U_T described in build_dqc_chain,
    as its checked ``params`` and ``unitaries``; it holds no coin.

    Node t's two coins are √λ·U_t† (to max(t − 1, 0)) and √ω·U_{t+1} (to
    min(t + 1, T)), with U_0 = U_{T+1} = I; ``validate`` computes with them
    from these two fields, and ``run_chain`` with ω and the node count.
    The unitaries are kept as read-only views, so compiled slices are
    shared, not copied.
    """

    unitaries: tuple[np.ndarray, ...]
    params: ChainParams

    def __post_init__(self):
        unitaries = tuple(self.unitaries)
        if not unitaries:
            raise DomainError("a chain has at least one slice, got 0")
        shape = np.shape(unitaries[0])
        dim = shape[0] if shape else 1
        if dim < 1:
            raise DomainError(f"a chain's unitaries have dimension >= 1, got {dim}")
        views = []
        for t, u in enumerate(unitaries, start=1):
            if np.shape(u) != (dim, dim):
                raise ShapeError(f"U_{t} has shape {np.shape(u)}, expected ({dim}, {dim})")
            view = np.asarray(u, dtype=np.complex128).view()
            # √ω·U_t, on edge (t − 1, t), is U_t's first coin in key order
            if not np.isfinite(view).all():
                raise DomainError(f"coin for edge ({t - 1}, {t}) contains NaN or Inf entries")
            view.flags.writeable = False
            views.append(view)
        object.__setattr__(self, "unitaries", tuple(views))

    @property
    def num_nodes(self) -> int:
        return len(self.unitaries) + 1

    @property
    def dim(self) -> int:
        return self.unitaries[0].shape[0]


def build_dqc_chain(circuit: Circuit, params: ChainParams) -> ChainWalk:
    """Compile a circuit into its dissipative chain walk, which keeps the
    circuit's compiled slices and ω and writes no coin.

    Nodes 0..T are time registers.  Interior node t hops forward applying
    U_{t+1} with amplitude √ω and backward undoing U_t with amplitude √λ;
    node 0 backs onto itself with √λ·I and node T self-loops with √ω·I.
    """
    return ChainWalk(circuit_unitaries(circuit), params)


def validate(chain: ChainWalk) -> np.ndarray:
    """The residual ‖Σ B†B − I‖_F of the normalization at every node of a
    chain walk, indexed by node.

    Node t's sum is built from its two coins, one node at a time: the
    backward coin's (√λ·U_t)(√λ·U_t)† plus the forward coin's
    (√ω·U_{t+1})†(√ω·U_{t+1}), with U_0 = U_{T+1} = I; that is the sum of
    B†B over its out-edges in key order, with no table of coins held.
    """
    sqrt_w, sqrt_l = math.sqrt(chain.params.omega), math.sqrt(chain.params.lam)
    eye = np.eye(chain.dim, dtype=np.complex128)
    us = (eye, *chain.unitaries, eye)
    residuals = np.empty(chain.num_nodes)
    for t in range(chain.num_nodes):
        back, forward = sqrt_l * us[t], sqrt_w * us[t + 1]
        gram = back @ back.conj().T + forward.conj().T @ forward
        residuals[t] = frobenius(gram - eye)
    return residuals


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
    #: The state after the last step: the walk's own blocks, so the
    #: (T+1, 1, 1) populations for ``run_chain``.
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
    yields ``converged=False`` rather than an exception, and ``converged``
    is a ``bool``.  ``final_detection`` is the population of the last node.

    The walk advances in blocks of B steps, each through ``step``, and the
    checks run once per block: the node distributions of the block's states
    are one ``einsum`` over their stack, into contiguous rows whose totals
    and changes sum in the order of a step-by-step loop; the distance is
    computed on the steps that may converge, in order, up to the first that
    does and before the first step whose total has drifted from 1, which is
    raised if no step before it converges.  Steps, convergence, history,
    final state and the drift's error are those of a step-by-step loop, bit
    for bit, though the last block may step past the converged step.  B
    is that of ``sweep_chain`` (``_block_steps``): ``_BLOCK_STEPS``,
    shortened to end at ``max_steps`` and so that the block's states, their
    stack and the state carried into it fit in ``_BLOCK_FLOATS`` floats; a
    walk whose state alone exceeds that runs one step per block and holds
    what a step-by-step loop holds.
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
    last = init.probabilities()
    history = [last[None]]
    prev = init
    converged = False
    n = 0
    while n < max_steps and not converged:
        # a step holds its complex state and that state's copy in the stack
        b = _block_steps(max_steps - n, 4 * init.blocks.size)
        states = []
        cur = prev
        # the block may step past a drift that a step-by-step loop raises,
        # into overflow: its inf and nan are left to the drift check
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(b):
                cur = step(walk, cur)
                states.append(cur)
            rows = np.empty((b + 1, len(last)))
            rows[0] = last
            stack = np.concatenate([s.blocks for s in states])  # (b·N, d, d)
            rows[1:] = np.einsum("nii->n", stack).real.reshape(b, -1)
            del stack  # before the distances, which need a difference of states
            moved = np.abs(rows[1:] - rows[:-1]).sum(axis=1)
            totals = rows[1:].sum(axis=1)
        first = int(_first_converged(
            totals[:, None],
            (moved <= tol + margin)[:, None],
            n,
            lambda j, _: block_diff_norm(states[j], states[j - 1] if j else prev) < tol,
        )[0])
        converged = first < b
        kept = min(first, b - 1) + 1
        history.append(rows[1 : kept + 1])
        prev, last = states[kept - 1], rows[kept]
        n += kept

    history = np.concatenate(history)
    return ConvergenceReport(
        steps=n,
        converged=converged,
        history=history,
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
#: Floats a block's buffers may hold (1 MB), so their memory never grows
#: with B·K·T.
_BLOCK_FLOATS = 2**17


def _block_steps(remaining: int, step_floats: int) -> int:
    """Steps of an engine's next block: ``_BLOCK_STEPS``, shortened to the
    ``remaining`` steps and so that the block's steps and the one carried
    into it, ``step_floats`` floats each, fit in ``_BLOCK_FLOATS``; one step
    when two do not fit."""
    return max(1, min(_BLOCK_STEPS, remaining, _BLOCK_FLOATS // step_floats - 1))


def _first_converged(totals, candidates, n, confirm=None) -> np.ndarray:
    """Each row's first converged step in a block of b steps run from step
    n, b where it has none, or the trace drift a step-by-step loop raises.

    ``totals[j, i]`` is row i's total population after step n + j + 1, and
    ``candidates[j, i]`` says whether row i may converge on that step.  A
    step-by-step loop checks a step's drift before its convergence, so a
    row's candidates count only before its first drifting step.  With
    ``confirm``, each row's counted candidates are passed to
    ``confirm(j, i)`` in step order up to the first it accepts, which is
    that row's converged step; without, the first counted one is.  A row
    that drifts before it converges raises at the earliest such step,
    with its total.
    """
    b = len(totals)
    drifted = np.abs(totals - 1.0) > TOL.trace
    candidates = candidates & ~np.logical_or.accumulate(drifted, axis=0)
    if confirm is not None:
        accepted = np.zeros_like(candidates)
        for j, i in np.argwhere(candidates):
            if not accepted[:, i].any() and confirm(j, i):
                accepted[j, i] = True
        candidates = accepted
    first = np.where(candidates.any(axis=0), candidates.argmax(axis=0), b)
    # a row that converges does so before its first drift
    drifted &= first == b
    if drifted.any():
        j, i = divmod(int(drifted.argmax()), drifted.shape[1])
        raise ArithmeticError(
            f"trace drifted to {totals[j, i]} at step {n + j + 1}; "
            "walk is not trace preserving"
        )
    return first


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
    summation order of a step-by-step loop (``_first_converged``).  A drift
    counts only on steps where its row is still live (not converged on an
    earlier step), so it raises at the step, and with the total, of a
    step-by-step loop.  B is shortened (``_block_steps``) so that the last
    block ends at ``max_steps`` and so that the buffer holds at most
    ``_BLOCK_FLOATS`` floats; a grid too large for that runs with B = 1,
    whose buffer is the two population arrays of a step-by-step loop.
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
        b = _block_steps(max_steps - n, p.size)
        buf = np.empty((b + 1, *p.shape))
        buf[0] = p
        terms = scratch[: len(rows)]
        # the block's state rows and the two halves of terms, taken once
        states, from_prev, from_next = list(buf), terms[:, 0], terms[:, 1]
        for state, after in zip(states, states[1:]):
            # (coef · p[:, sources]) · coef in place, then the two-term sum
            state.take(sources, axis=1, out=terms, mode="clip")
            np.multiply(coef, terms, out=terms)
            np.multiply(terms, coef, out=terms)
            np.add(from_prev, from_next, out=after)
        # row i converges at step n + j + 1 when that step moved it < tol;
        # it is live up to its first such step (first[i] = b when none)
        moved = np.abs(buf[1:] - buf[:-1]).sum(axis=2)
        first = _first_converged(buf[1:].sum(axis=2), moved < tol, n)
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
    chain: ChainWalk, tol: float = 1e-7, max_steps: int = 100_000
) -> ConvergenceReport:
    """``run_until_converged`` of a chain walk started at node 0, on its node
    populations alone.

    Every coin is a scalar times a unitary, so block t of the state after
    any number of steps is p_t · v_t v_t†, with v_t = U_t···U_1 ψ0/‖ψ0‖ for
    any input ψ0 and p the node populations, and the trace-norm distance
    between two steps is Σ_t |Δp_t|.  The populations are therefore iterated
    by the same engine on an ``OpenQuantumWalk`` over the chain's T+1 nodes
    with the 1×1 coins √λ and √ω, which keeps its history, stopping rule,
    drift check, ``max_steps`` and blocks of steps; its report is returned
    as it is, so ``final_state`` holds the (T+1, 1, 1) populations and
    ``converged`` is a ``bool``.  Within rounding
    (see ``run_until_converged``) the steps, history and detection equal
    those of ``run_until_converged`` on the chain's full d×d blocks.
    """
    sqrt_w, sqrt_l = [[math.sqrt(chain.params.omega)]], [[math.sqrt(chain.params.lam)]]
    last = chain.num_nodes - 1
    coins = {(0, 0): sqrt_l, (last, last): sqrt_w}
    for t in range(1, chain.num_nodes):
        coins[t - 1, t], coins[t, t - 1] = sqrt_w, sqrt_l
    populations = OpenQuantumWalk(chain.num_nodes, 1, coins)
    init = BlockState.pure(chain.num_nodes, 1, 0, [1.0])
    return run_until_converged(populations, init, tol=tol, max_steps=max_steps)
