"""Reference slice compiler: each gate applied with ``np.tensordot``.

This is the formulation ``circuits.apply_on_qubits`` had before it became
one ``matmul`` per gate: contract the gate's input axes with the qubit axes
of the row index, then move the gate's output axes back into place.  It
shares no code with the library's compile path, so the compiled slices can
be compared with it bit for bit.
"""

import numpy as np


def tensordot_apply(op, qubits, mat):
    """``op`` on the 1-based ``qubits`` of the row index of ``mat``."""
    k, n = len(qubits), mat.shape[0].bit_length() - 1
    axes = [q - 1 for q in qubits]
    tensor = mat.reshape((2,) * n + (-1,))
    out = np.tensordot(
        op.reshape((2,) * 2 * k), tensor, axes=(list(range(k, 2 * k)), axes)
    )
    return np.moveaxis(out, list(range(k)), axes).reshape(mat.shape)


def tensordot_slice(gates, num_qubits):
    """The gates of one slice folded over the identity."""
    out = np.eye(2**num_qubits, dtype=np.complex128)
    for g in gates:
        out = tensordot_apply(g.matrix(), g.qubits, out)
    return out
