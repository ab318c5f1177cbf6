"""Hot numeric kernels, in numpy.

Both models are edge tables over stacked (N, d, d) node blocks: the discrete
walk step and the jump term of the master equation are the same sum of
sandwiches B ρ B† over the edges, computed by ``step_blocks``.  The master
equation sends only its edges with a matrix coin here (a scalar coin c is
a rate of its real generator), and adds their per-node damping term with
``lindblad_rhs_kernel``.
"""

from __future__ import annotations

import numpy as np


def step_blocks(b_ops, b_dag, src, dst, blocks):
    """Apply one CP-map step to the stacked density blocks:
    out[i] = sum over edges e with dst[e] == i of B_e ρ_src[e] B_e†.

    Targets may repeat and come in any order.  The terms are scattered by
    one ``np.add.at`` on the flattened output, entry k of edge e going to
    dst[e]·d² + k (numpy's fast ``ufunc.at`` path is 1-D only), so each
    target sums its terms in edge order from zeros, bit for bit as an
    edge-by-edge scatter-add does.
    """
    terms = b_ops @ blocks[src] @ b_dag
    d2 = blocks.shape[1] * blocks.shape[2]
    out = np.zeros(blocks.size, dtype=terms.dtype)
    index = (dst[:, None] * d2 + np.arange(d2)).reshape(-1)
    np.add.at(out, index, terms.reshape(-1))
    return out.reshape(blocks.shape)


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
