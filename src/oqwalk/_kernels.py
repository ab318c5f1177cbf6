"""Hot numeric kernels, in numpy.

The walk iteration spends essentially all of its time applying small complex
matrix sandwiches B ρ B† over the edge table, and the continuous-time
reference model spends its time in the jump-operator sum.
"""

from __future__ import annotations

import numpy as np


def step_blocks(b_ops, b_dag, src, dst, blocks):
    """Apply one CP-map step to the stacked density blocks:
    out[i] = sum over edges e with dst[e] == i of B_e ρ_src[e] B_e†.
    """
    out = np.zeros_like(blocks)
    np.add.at(out, dst, b_ops @ blocks[src] @ b_dag)
    return out


def lindblad_rhs_kernel(l_ops, l_dag, damp, rho):
    """Dissipative generator Σ_k L_k ρ L_k† − damp ρ − ρ damp,
    with damp = ½ Σ_k L_k†L_k precomputed.
    """
    jump = (l_ops @ rho @ l_dag).sum(axis=0)
    return jump - damp @ rho - rho @ damp


def stacked_trace_norm(diff) -> float:
    """Sum of trace norms over a stack of Hermitian matrices."""
    return float(np.abs(np.linalg.eigvalsh(diff)).sum())
