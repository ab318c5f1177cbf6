"""Dense reference for the block master equation.

The chain's jump operators are assembled by Kronecker products on the full
(internal ⊗ node) space, with basis index s·N + n for internal state s and
register n, and the right-hand side is the textbook dense form
Σ_k L_k ρ L_k† − ½{L_k†L_k, ρ}.  None of this uses the library's edge table
or kernels, so it is an independent oracle for the block model.
"""

import numpy as np

from oqwalk.circuits import circuit_unitaries, embed_single

LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def node_op(i, j, num_nodes):
    """|i⟩⟨j| on the register space."""
    op = np.zeros((num_nodes, num_nodes), dtype=complex)
    op[i, j] = 1.0
    return op


def dense_chain_jumps(circuit, include_reset=False):
    """One Hermitian hop U_t ⊗ |t⟩⟨t−1| + U_t† ⊗ |t−1⟩⟨t| per slice, plus
    one σ_q ⊗ |0⟩⟨0| per qubit with ``include_reset``."""
    num_nodes = circuit.depth + 1
    jumps = []
    for t, u in enumerate(circuit_unitaries(circuit), start=1):
        hop = node_op(t, t - 1, num_nodes)
        jumps.append(np.kron(u, hop) + np.kron(u.conj().T, hop.T))
    if include_reset:
        for q in range(1, circuit.num_qubits + 1):
            lower = embed_single(LOWER, q, circuit.num_qubits)
            jumps.append(np.kron(lower, node_op(0, 0, num_nodes)))
    return jumps


def dense_rhs(jumps, rho):
    damp = 0.5 * sum(l.conj().T @ l for l in jumps)
    return sum(l @ rho @ l.conj().T for l in jumps) - damp @ rho - rho @ damp


def embed_blocks(blocks):
    """Σ_n blocks[n] ⊗ |n⟩⟨n|."""
    num_nodes = blocks.shape[0]
    return sum(np.kron(b, node_op(n, n, num_nodes)) for n, b in enumerate(blocks))


def node_block(rho, i, j, num_nodes):
    """The (i, j) register block ⟨i|ρ|j⟩ of a dense state."""
    return rho[i::num_nodes, j::num_nodes]
