"""The dense chain walk, the tests' oracle for ``walk.ChainWalk``.

The library keeps a chain walk as its slices and ω and never writes its
coins.  ``chain_table`` writes them, as the dict of per-edge coins of the
chain of U_1..U_T, keyed (source, target), and ``keyed_chain`` is the
``OpenQuantumWalk`` built from it, which the tests step block by block and
whose Gram sums ``dense_lindblad.source_gram`` takes.  ``history_state``
writes the lab-frame blocks p_t·v_t v_t† of a chain from its populations,
which ``run_chain`` iterates without them, and ``conditional_state`` reads
one node's normalized block.  ``seeded_circuit`` is a random circuit of a
given size, the same for the same seed.  ``stepwise_run`` is
``run_until_converged`` as a step-by-step loop, with its checks after every
step: the oracle of the block-stepped engine.
"""

import math

import numpy as np

from oqwalk.circuits import Circuit, Gate, circuit_unitaries
from oqwalk.config import TOL
from oqwalk.errors import DomainError
from oqwalk.walk import (
    BlockState,
    ConvergenceReport,
    OpenQuantumWalk,
    _check_run_limits,
    block_diff_norm,
    step,
    validate_state,
)

#: Kinds ``seeded_circuit`` draws from, as the benchmark's circuit files do.
SEEDED_KINDS = ("H", "X", "S", "T", "R", "CNOT", "CP")


def chain_table(unitaries, params):
    """The chain's per-edge coins, keyed (source, target): √λ·I at (0, 0),
    √ω·U_t at (t − 1, t), √λ·U_t† at (t, t − 1) and √ω·I at (T, T)."""
    big_t, dim = len(unitaries), unitaries[0].shape[0]
    sqrt_w, sqrt_l = math.sqrt(params.omega), math.sqrt(params.lam)
    eye = np.eye(dim, dtype=np.complex128)
    table = {(0, 0): sqrt_l * eye, (big_t, big_t): sqrt_w * eye}
    for t, u in enumerate(unitaries, start=1):
        table[(t - 1, t)] = sqrt_w * u
        table[(t, t - 1)] = sqrt_l * u.conj().T
    return table


def keyed_chain(unitaries, params):
    """The chain walk built from its dict of per-edge coins."""
    return OpenQuantumWalk(len(unitaries) + 1, unitaries[0].shape[0],
                           chain_table(unitaries, params))


def dense_chain(circuit, params):
    """``keyed_chain`` of a circuit's compiled slices."""
    return keyed_chain(circuit_unitaries(circuit), params)


def history_state(unitaries, psi0, p):
    """The (T+1, d, d) blocks p_t·v_t v_t† of the chain over U_1..U_T, with
    v_0 = ψ0/‖ψ0‖ and v_t = U_t v_{t−1}: its state at node populations p."""
    psi0 = np.asarray(psi0, dtype=np.complex128)
    vecs = [psi0 / np.linalg.norm(psi0)]
    for u in unitaries:
        vecs.append(u @ vecs[-1])
    vecs = np.array(vecs)
    return BlockState(p[:, None, None] * vecs[:, :, None] * vecs[:, None, :].conj())


def conditional_state(state, node):
    """Normalized density matrix at one node: ρ_node / Tr ρ_node."""
    if not 0 <= node < state.num_nodes:
        raise DomainError(f"node {node} out of range")
    p = float(np.trace(state.blocks[node]).real)
    if p <= TOL.zero_probability:
        raise DomainError(f"node {node} has zero probability")
    return state.blocks[node] / p


def seeded_circuit(seed, num_qubits, depth):
    """``depth`` slices of disjoint random gates on ``num_qubits`` qubits;
    CP takes a random phase."""
    rng = np.random.default_rng(seed)
    slices = []
    for _ in range(depth):
        free = [int(q) for q in rng.permutation(num_qubits) + 1]
        gates = []
        while free and (not gates or rng.random() < 0.7):
            kind = SEEDED_KINDS[rng.integers(5 if len(free) == 1 else 7)]
            arity = 2 if kind in ("CNOT", "CP") else 1
            theta = float(rng.uniform(-math.pi, math.pi)) if kind == "CP" else None
            gates.append(Gate(kind, tuple(free[:arity]), theta))
            free = free[arity:]
        slices.append(tuple(gates))
    return Circuit(num_qubits, tuple(slices))


def stepwise_run(walk, init, tol=1e-7, max_steps=100_000):
    """``run_until_converged`` one step at a time: each step's distribution,
    drift check, population change and, where that change leaves it in
    doubt, trace-norm distance, before the next step.  ``converged`` is
    numpy's bool where the last step's change already rules it out."""
    _check_run_limits(tol, max_steps)
    validate_state(init)

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
