"""Dense reference for the block master equation.

The chain's jump operators are assembled by Kronecker products on the full
(internal ⊗ node) space, with basis index s·N + n for internal state s and
register n, and the right-hand side is the textbook dense form
Σ_k L_k ρ L_k† − ½{L_k†L_k, ρ}.  None of this uses the library's kernels,
so it is an independent oracle for the block model.

``edge_table_reset`` is the reset term as an edge table: one embedded
lowering coin per qubit on the (0 → 0) edge, through the walk's step kernel,
and its damping as dense products with the Gram sum of ``source_gram``.
``frame_rhs`` moves sub-blocks and scales by the diagonal instead, and must
give the same bits.  ``source_gram`` is also the oracle of
``walk.validate``.  Both call the step kernel through ``target_step``, which
builds its scatter index from the edges' target nodes, as the tests of the
kernel do.

``stacked_frames`` writes all T+1 history-state frames into one stack, with
their daggers, and ``stacked_lift`` and ``stacked_lower`` apply them as two
batched products.  The library never builds a frame, and
``frame_diagonal`` lowers a lab-frame test state to its real frame
diagonal.

``frame_rhs`` is the generator on complex (N, d, d) frame blocks,
coherences included, written from the path Laplacian and the qubits' bits,
never from the model's generator, and ``frame_rk4`` the RK4 loop on them,
Hermitized each step and never rescaled.  ``lab_rhs`` is ``frame_rhs`` on
lab-frame blocks, lowered into the frame and lifted back with the stacked
frames.

The library integrates the lumped state q[t, j] of a basis input x: the
common frame-diagonal entry of the columns s ⊆ x of popcount j.
``level_columns`` lists those columns and ``lift_levels`` writes q out as
the (N, d) frame diagonal it stands for, so the tests can hold the lumped
chain to the frame loop on the whole diagonal.
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


def target_step(b_ops, b_dag, src, dst, blocks):
    """``_kernels.step_blocks`` on an edge table given by its target nodes,
    through the table's scatter index."""
    index = _kernels.scatter_index(dst, blocks.shape[1])
    return _kernels.step_blocks(b_ops, b_dag, src, index, blocks)


def source_gram(b_ops, b_dag, src, dst, num_nodes):
    """Per node j, Σ_{e: src[e] = j} B_e†B_e: the step on the adjoint edges,
    applied to identity blocks."""
    dim = b_ops.shape[1]
    eye = np.broadcast_to(np.eye(dim, dtype=np.complex128), (num_nodes, dim, dim))
    return target_step(b_dag, b_ops, dst, src, eye)


def edge_table_reset(num_qubits, node0):
    """The reset jumps' term on the (1, d, d) block of node 0: their coins
    stacked in qubit order with their daggers, the jump term by
    ``step_blocks`` and the damping G = −½Σ σ⁻†σ⁻ by ``source_gram``, added
    as jump + G ρ + ρ G†."""
    coins = np.array([lowering(num_qubits, q) for q in range(1, num_qubits + 1)])
    dag = np.ascontiguousarray(coins.conj().transpose(0, 2, 1))
    src = dst = np.zeros(num_qubits, dtype=np.int64)
    g = -0.5 * source_gram(coins, dag, src, dst, 1)
    g_dag = np.ascontiguousarray(g.conj().transpose(0, 2, 1))
    jump = target_step(coins, dag, src, dst, node0)
    return jump + g @ node0 + node0 @ g_dag


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


def stacked_frames(unitaries):
    """W_0 = I and W_t = U_t W_{t−1} as one (T+1, d, d) stack, and their
    daggers conjugated into a C-ordered stack."""
    dim = unitaries[0].shape[0]
    frames = np.empty((len(unitaries) + 1, dim, dim), dtype=np.complex128)
    frames[0] = np.eye(dim)
    for t, u in enumerate(unitaries, start=1):
        np.matmul(u, frames[t - 1], out=frames[t])
    frames_dag = np.empty_like(frames)
    np.conjugate(frames.transpose(0, 2, 1), out=frames_dag)
    return frames, frames_dag


def stacked_lift(unitaries, blocks):
    """Frame blocks ρ̃_n to lab blocks W_n ρ̃_n W_n†, on the whole stack."""
    frames, frames_dag = stacked_frames(unitaries)
    return frames @ blocks @ frames_dag


def stacked_lower(unitaries, blocks):
    """Lab blocks ρ_n to frame blocks W_n† ρ_n W_n, on the whole stack."""
    frames, frames_dag = stacked_frames(unitaries)
    return frames_dag @ blocks @ frames


def frame_diagonal(unitaries, blocks):
    """The real (N, d) diagonal of the frame blocks W_n† ρ_n W_n of lab
    blocks ρ_n: the input of ``integrate``."""
    return np.einsum("nii->ni", stacked_lower(unitaries, blocks)).real.copy()


def path_laplacian(num_nodes):
    """Unit-rate generator of the path graph 0 − 1 − … − (N−1)."""
    lap = np.diag(np.ones(num_nodes - 1), 1) + np.diag(np.ones(num_nodes - 1), -1)
    return lap - np.diag(lap.sum(axis=0))


def frame_rhs(model, blocks):
    """The generator on frame blocks: the hops as one real product of the
    path Laplacian on the (N, 2d²) float view, plus, with the model's
    ``include_reset``, the resets on node 0.

    Lowering qubit q moves the [1, 1] sub-block of its axis pair to the
    [0, 0] one; the moves are summed from zeros in qubit order, the bits of
    the sum of σ⁻ ρ̃_0 σ⁺ over the qubits.  The damping is −½ the popcount of
    each basis state, counted bit by bit.  Only the reset flag is read off
    the model.
    """
    num_nodes, dim = blocks.shape[:2]
    flat = blocks.reshape(num_nodes, -1).view(np.float64)
    out = (path_laplacian(num_nodes) @ flat).view(np.complex128).reshape(blocks.shape)
    if model.include_reset:
        node0 = blocks[:1]
        jump = np.zeros_like(node0)
        for q in range(1, dim.bit_length()):
            axes = (2 ** (q - 1), 2, dim >> q) * 2
            jump.reshape(axes)[:, 0, :, :, 0] += node0.reshape(axes)[:, 1, :, :, 1]
        g = -0.5 * np.array([bin(x).count("1") for x in range(dim)], dtype=float)
        out[:1] += _kernels.lindblad_rhs_kernel(jump, g[:, None], g[None, :], node0)
    return out


def frame_rk4(model, blocks, dt, steps):
    """The frame blocks after each of ``steps`` RK4 steps of ``frame_rhs``
    from ``blocks``, Hermitized after each step."""
    rhs = lambda r: frame_rhs(model, r)
    rho = 0.5 * (blocks + blocks.conj().transpose(0, 2, 1))
    for _ in range(steps):
        k1 = rhs(rho)
        k2 = rhs(rho + (0.5 * dt) * k1)
        k3 = rhs(rho + (0.5 * dt) * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
        yield rho


def lab_rhs(model, blocks):
    """The generator applied to lab-frame blocks: W ``frame_rhs``(W† ρ W) W†."""
    slices = model._unitaries
    return stacked_lift(slices, frame_rhs(model, stacked_lower(slices, blocks)))


def level_columns(x, levels, dim):
    """The frame-diagonal columns that level j of a lumped state stands for,
    from input x: the s ⊆ x of popcount j + popcount(x) − k, with k + 1 the
    level count (k = popcount(x) with resets, 0 without)."""
    low = bin(x).count("1") - (levels - 1)
    columns = [[] for _ in range(levels)]
    for s in range(dim):
        if s & x == s and bin(s).count("1") >= low:
            columns[bin(s).count("1") - low].append(s)
    return columns


def lift_levels(q, x, dim):
    """The (N, d) frame diagonal that the lumped state q stands for from
    input x: q[:, j] in every column of level j, zeros elsewhere."""
    p = np.zeros((q.shape[0], dim))
    for j, columns in enumerate(level_columns(x, q.shape[1], dim)):
        p[:, columns] = q[:, j : j + 1]
    return p


def frame_run(model, blocks, dt, stop_tol, max_time, observe_every):
    """``integrate``'s loop on frame blocks: ``frame_rk4`` steps until
    ‖``frame_rhs``‖_F < stop_tol or ceil(max_time/dt) steps, with the node
    traces sampled at t = 0, every round(observe_every/dt) steps and at the
    final step.  (time, traces) samples, steps, stationary."""
    n_steps = int(np.ceil(max_time / dt))
    stride = max(1, round(observe_every / dt))
    rho, steps = blocks, 0
    samples = [(0.0, np.einsum("nii->n", rho).real)]
    for n in range(n_steps + 1):
        stationary = np.linalg.norm(frame_rhs(model, rho)) < stop_tol
        if stationary or n == n_steps:
            break
        rho = next(frame_rk4(model, rho, dt, 1))
        steps = n + 1
        if steps % stride == 0:
            samples.append((steps * dt, np.einsum("nii->n", rho).real))
    if steps % stride != 0:
        samples.append((steps * dt, np.einsum("nii->n", rho).real))
    return samples, steps, stationary
