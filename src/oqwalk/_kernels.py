"""Hot numeric kernels, in numpy.

Both models are edge tables over stacked (N, d, d) node blocks: the discrete
walk step and the jump term of the master equation are the same sum of
sandwiches B ρ B† over the edges, so both spend their time in
``step_blocks``.  The master equation adds the per-node damping term of
``lindblad_rhs_kernel``.
"""

from __future__ import annotations

import numpy as np


def step_blocks(b_ops, b_dag, src, dst, blocks):
    """Apply one CP-map step to the stacked density blocks:
    out[i] = sum over edges e with dst[e] == i of B_e ρ_src[e] B_e†.

    Targets may repeat and come in any order.  The edges are added in runs
    of strictly increasing target, one vectorized add per run, so the cost
    is linear in the number of edges and each target sums its terms in edge
    order, bit for bit as an edge-by-edge scatter-add does.  Edges in the
    scatter order of ``walk.edge_arrays`` form as many runs as the largest
    in-degree; other orders may form up to one run per edge.
    """
    terms = b_ops @ blocks[src] @ b_dag
    out = np.zeros(blocks.shape, dtype=terms.dtype)
    cuts = [0, *(np.flatnonzero(dst[1:] <= dst[:-1]) + 1).tolist(), len(dst)]
    for start, stop in zip(cuts, cuts[1:]):
        out[dst[start:stop]] += terms[start:stop]
    return out


def source_gram(b_ops, b_dag, src, dst, num_nodes):
    """Per node j, Σ_{e: src[e] = j} B_e†B_e: the step on the adjoint edges,
    applied to identity blocks."""
    dim = b_ops.shape[1]
    eye = np.broadcast_to(np.eye(dim, dtype=np.complex128), (num_nodes, dim, dim))
    return step_blocks(b_dag, b_ops, dst, src, eye)


def lindblad_rhs_kernel(jump, g, g_dag, blocks):
    """Block master-equation generator jump + G_n ρ_n + ρ_n G_n†, where
    ``jump`` is the ``step_blocks`` jump term and G_n = −½K_n is the
    per-node damping."""
    return jump + g @ blocks + blocks @ g_dag


def stacked_trace_norm(diff) -> float:
    """Sum of trace norms over a stack of Hermitian matrices."""
    return float(np.abs(np.linalg.eigvalsh(diff)).sum())
