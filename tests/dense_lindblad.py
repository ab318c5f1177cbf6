"""Dense reference for the block master equation.

The chain's jump operators are assembled by Kronecker products on the full
(internal ⊗ node) space, with basis index s·N + n for internal state s and
register n, and the right-hand side is the textbook dense form
Σ_k L_k ρ L_k† − ½{L_k†L_k, ρ}.  None of this uses the library's kernels,
so it is an independent oracle for the block model.

``edge_table_reset`` is the reset term as an edge table: one embedded
lowering coin per qubit on the (0 → 0) edge, through the walk's step kernel
and the damping kernel.  The model moves sub-blocks instead, and must give
the same bits.
"""

import numpy as np

from oqwalk import _kernels
from oqwalk.circuits import circuit_unitaries

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
        n = circuit.num_qubits
        for q in range(1, n + 1):
            jumps.append(np.kron(lowering(n, q), node_op(0, 0, num_nodes)))
    return jumps


def lowering(num_qubits, q):
    """σ⁻ = |0⟩⟨1| on qubit q of num_qubits, qubit 1 the leftmost."""
    return np.kron(np.kron(np.eye(2 ** (q - 1)), LOWER), np.eye(2 ** (num_qubits - q)))


def edge_table_reset(num_qubits, node0):
    """The reset jumps' term on the (1, d, d) block of node 0: their coins
    stacked in qubit order with their daggers, the jump term by
    ``step_blocks`` and the damping −½Σ σ⁻†σ⁻ by ``source_gram``."""
    coins = np.array([lowering(num_qubits, q) for q in range(1, num_qubits + 1)])
    dag = np.ascontiguousarray(coins.conj().transpose(0, 2, 1))
    src = dst = np.zeros(num_qubits, dtype=np.int64)
    g = -0.5 * _kernels.source_gram(coins, dag, src, dst, 1)
    g_dag = np.ascontiguousarray(g.conj().transpose(0, 2, 1))
    jump = _kernels.step_blocks(coins, dag, src, dst, node0)
    return _kernels.lindblad_rhs_kernel(jump, g, g_dag, node0)


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
