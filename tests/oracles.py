"""Circuit oracles of the tests: the matrices the built-in circuits must
multiply out to, and the writer of the circuit text format.

``dft_matrix`` and ``toffoli_matrix`` are written from their definitions,
not from gates, so they check ``circuit_product`` of ``qft`` and
``toffoli13``.  ``render_circuit`` is the inverse of ``parse_circuit`` (up
to comments and the name); the tests write circuit files with it and
round-trip the parser through it.
"""

import math

import numpy as np


def dft_matrix(dim):
    """Unitary DFT matrix with entries e^{2πi·jk/dim}/√dim."""
    idx = np.arange(dim)
    return np.exp(2j * math.pi * np.outer(idx, idx) / dim) / math.sqrt(dim)


def toffoli_matrix():
    """8x8 permutation: identity except |110⟩ ↔ |111⟩."""
    m = np.eye(8, dtype=np.complex128)
    m[[6, 7]] = m[[7, 6]]
    return m


def _render_phase(theta):
    for k in (1, 2, 4, 8):
        value = math.pi / k
        for sign, prefix in ((value, ""), (-value, "-")):
            if theta == sign:
                return f"{prefix}pi" + (f"/{k}" if k > 1 else "")
    return repr(theta)


def render_circuit(circuit):
    """The circuit in the text format that ``parse_circuit`` reads."""
    lines = [f"qubits {circuit.num_qubits}"]
    for gates in circuit.slices:
        rendered = []
        for g in gates:
            parts = [g.kind, *map(str, g.qubits)]
            if g.theta is not None:
                parts.append(_render_phase(g.theta))
            rendered.append(" ".join(parts))
        lines.append(" ; ".join(rendered))
    return "\n".join(lines) + "\n"
