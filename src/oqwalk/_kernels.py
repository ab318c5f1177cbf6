"""Hot numeric kernels, in numpy.

The discrete walk is an edge table over stacked (N, d, d) node blocks; one
step is the sum of sandwiches B ρ B† over its edges, computed by
``step_blocks``.  The table's targets enter the kernel as its flat scatter
index, which ``scatter_index`` builds once per table.  The master equation
calls ``lindblad_rhs_kernel`` once per model, to build node 0's
(k+1)-square level block of its lumped generator.
"""

from __future__ import annotations

import numpy as np


def scatter_index(dst, dim):
    """The flat scatter index of an edge table with targets ``dst`` and d×d
    coins: entry k of edge e's term goes to dst[e]·d² + k of the flattened
    (N, d, d) output.  A read-only ``intp`` array of E·d² entries."""
    d2 = dim * dim
    index = np.asarray(dst, dtype=np.intp)[:, None] * d2 + np.arange(d2, dtype=np.intp)
    index = index.reshape(-1)
    index.flags.writeable = False
    return index


def step_blocks(b_ops, b_dag, src, scatter, blocks):
    """Apply one CP-map step to the stacked density blocks:
    out[i] = sum over edges e with dst[e] == i of B_e ρ_src[e] B_e†, where
    ``scatter`` is ``scatter_index(dst, d)``.

    Targets may repeat and come in any order.  The terms are scattered by
    one ``np.add.at`` on the flattened output (numpy's fast ``ufunc.at``
    path is 1-D only), so each target sums its terms in edge order from
    zeros, bit for bit as an edge-by-edge scatter-add does.
    """
    terms = b_ops @ blocks[src] @ b_dag
    out = np.zeros(blocks.size, dtype=terms.dtype)
    np.add.at(out, scatter, terms.reshape(-1))
    return out.reshape(blocks.shape)


def lindblad_rhs_kernel(jump, g, g_dag, blocks):
    """Master-equation generator jump + G ρ_0 + ρ_0 G† for a diagonal damping
    G = −½K, as elementwise scalings by G's diagonal as a column ``g`` and a
    row ``g_dag``.  The library calls it once per model, on the (k+1)-square
    level block: ``jump`` holds the gains k − j on its superdiagonal,
    g = −j/2, and ``blocks`` is the identity, so the diagonal is −j."""
    return jump + g * blocks + blocks * g_dag


def stacked_trace_norm(diff) -> float:
    """Sum of trace norms over a stack of Hermitian matrices."""
    return float(np.abs(np.linalg.eigvalsh(diff)).sum())
