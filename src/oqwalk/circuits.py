"""Gate library, slice compiler, built-in circuits, and the text format.

Conventions
-----------
Qubits are 1-based and qubit 1 is the most significant bit of the basis
index, matching top-line-first circuit diagrams.  A circuit is an ordered
list of time slices; the gates inside one slice act on pairwise disjoint
qubits and together form one unitary U_t.  Controlled-phase gates are
diagonal, hence symmetric in control/target; their qubit pair is normalized
to ascending order on construction.

The text format (UTF-8, line oriented)::

    # comment to end of line
    qubits 3
    H 1
    CP 2 1 pi/2
    CNOT 1 3
    T 2 ; T 3          # one slice, two disjoint gates

Phases are ``pi``-fractions like ``pi/2``, ``-pi/4`` or decimal radians.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import CircuitError, CircuitParseError, DomainError

__all__ = [
    "Gate",
    "Circuit",
    "MAX_QUBITS",
    "gate_matrix",
    "apply_on_qubits",
    "slice_unitary",
    "circuit_unitaries",
    "circuit_product",
    "toffoli13",
    "qft",
    "parse_circuit",
    "render_circuit",
    "dft_matrix",
    "toffoli_matrix",
    "basis_state",
    "BUILTIN_CIRCUITS",
]

_SINGLE_KINDS = ("H", "X", "S", "Sdg", "T", "Tdg", "R", "P")
_TWO_KINDS = ("CNOT", "CP")
_PARAMETRIC = ("P", "CP")

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)

#: Every engine stores dense 2^n x 2^n operators, so a circuit is capped at
#: 12 qubits (dimension 4096).
MAX_QUBITS = 12


def _phase_matrix(theta: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, cmath.exp(1j * theta)]], dtype=np.complex128)


@dataclass(frozen=True)
class Gate:
    """One gate application: kind, 1-based qubits, optional phase angle.

    Two-qubit kinds list the control first; CP is symmetric and stored with
    its qubits in ascending order.
    """

    kind: str
    qubits: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in _SINGLE_KINDS + _TWO_KINDS:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        arity = 1 if self.kind in _SINGLE_KINDS else 2
        qubits = tuple(int(q) for q in self.qubits)
        if len(qubits) != arity:
            raise CircuitError(f"{self.kind} takes {arity} qubit(s), got {qubits}")
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"{self.kind} qubits must be distinct, got {qubits}")
        if any(q < 1 for q in qubits):
            raise CircuitError(f"qubit indices are 1-based, got {qubits}")
        if self.kind in _PARAMETRIC:
            if self.theta is None or not math.isfinite(self.theta):
                raise CircuitError(f"{self.kind} requires a finite phase angle")
        elif self.theta is not None:
            raise CircuitError(f"{self.kind} takes no phase angle")
        if self.kind == "CP":
            qubits = tuple(sorted(qubits))
        object.__setattr__(self, "qubits", qubits)


@dataclass(frozen=True)
class Circuit:
    """Ordered time slices of disjoint-qubit gates on ``num_qubits`` qubits."""

    num_qubits: int
    slices: tuple[tuple[Gate, ...], ...]
    name: str = ""

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise CircuitError(
                f"a circuit has 1 to {MAX_QUBITS} qubits, got {self.num_qubits}"
            )
        slices = tuple(tuple(s) for s in self.slices)
        if not slices:
            raise CircuitError("a circuit has at least one slice")
        for t, gates in enumerate(slices):
            _check_slice(gates, self.num_qubits, where=f"slice {t + 1}")
        object.__setattr__(self, "slices", slices)

    @property
    def depth(self) -> int:
        return len(self.slices)

    @cached_property
    def _unitaries(self) -> tuple[np.ndarray, ...]:
        """Read-only [U_1 .. U_T], compiled on first use.  The circuit is
        immutable, so every chain, product and model built from it shares
        one compile."""
        out = tuple(slice_unitary(s, self.num_qubits) for s in self.slices)
        for u in out:
            u.flags.writeable = False
        return out


def _check_slice(gates, num_qubits: int, where: str = "slice") -> None:
    if len(gates) == 0:
        raise CircuitError(f"{where}: empty slice")
    used: set[int] = set()
    for g in gates:
        if any(q > num_qubits for q in g.qubits):
            raise CircuitError(
                f"{where}: gate {g.kind} {g.qubits} exceeds qubit count {num_qubits}"
            )
        overlap = used.intersection(g.qubits)
        if overlap:
            raise CircuitError(f"{where}: qubit(s) {sorted(overlap)} used twice")
        used.update(g.qubits)


def gate_matrix(kind: str, theta: float | None = None) -> np.ndarray:
    """The 2x2 (single-qubit) or 4x4 (controlled, control ⊗ target) unitary."""
    fixed = {
        "H": _H,
        "X": _X,
        "S": _phase_matrix(math.pi / 2),
        "Sdg": _phase_matrix(-math.pi / 2),
        "T": _phase_matrix(math.pi / 4),
        "Tdg": _phase_matrix(-math.pi / 4),
        "R": _phase_matrix(math.pi / 8),
    }
    if kind in fixed:
        if theta is not None:
            raise DomainError(f"{kind} takes no phase angle")
        return fixed[kind].copy()
    if kind == "P":
        _need_theta(kind, theta)
        return _phase_matrix(theta)
    if kind == "CNOT":
        if theta is not None:
            raise DomainError("CNOT takes no phase angle")
        return _CNOT.copy()
    if kind == "CP":
        _need_theta(kind, theta)
        return np.diag([1.0, 1.0, 1.0, cmath.exp(1j * theta)]).astype(np.complex128)
    raise DomainError(f"unknown gate kind {kind!r}")


def _need_theta(kind, theta):
    if theta is None or not math.isfinite(theta):
        raise DomainError(f"{kind} requires a finite phase angle")


def apply_on_qubits(op: np.ndarray, qubits, mat: np.ndarray) -> np.ndarray:
    """The 2^k x 2^k ``op`` applied to the k ``qubits`` of the row index of
    ``mat``, which has 2^n rows; the first of ``qubits`` is the most
    significant bit of ``op``'s index.

    Equal to (``op`` embedded in the n-qubit register) @ ``mat``, but each
    entry costs one 2^k-term sum on the reshaped qubit axes.
    """
    k, n = len(qubits), mat.shape[0].bit_length() - 1
    axes = [q - 1 for q in qubits]
    tensor = mat.reshape((2,) * n + (-1,))
    out = np.tensordot(
        op.reshape((2,) * 2 * k), tensor, axes=(list(range(k, 2 * k)), axes)
    )
    return np.moveaxis(out, list(range(k)), axes).reshape(mat.shape)


def slice_unitary(gates, num_qubits: int) -> np.ndarray:
    """The gates of one slice applied to the identity (order irrelevant:
    disjoint).  The slice is checked as a one-slice circuit."""
    (gates,) = Circuit(num_qubits, (gates,)).slices
    out = np.eye(2**num_qubits, dtype=np.complex128)
    for g in gates:
        out = apply_on_qubits(gate_matrix(g.kind, g.theta), g.qubits, out)
    return out


def circuit_unitaries(circuit: Circuit) -> list[np.ndarray]:
    """[U_1 .. U_T], one unitary per slice: a new list of the circuit's
    read-only compiled slices."""
    return list(circuit._unitaries)


def circuit_product(circuit: Circuit) -> np.ndarray:
    """U_T · U_{T-1} · ... · U_1, as a new writeable array."""
    us = circuit_unitaries(circuit)
    return reduce(lambda acc, u: u @ acc, us[1:], us[0].copy())


def basis_state(num_qubits: int, bits: str) -> np.ndarray:
    """Computational basis vector for a bitstring, qubit 1 = leftmost bit."""
    if len(bits) != num_qubits or any(b not in "01" for b in bits):
        raise DomainError(f"need {num_qubits} bits of 0/1, got {bits!r}")
    vec = np.zeros(2**num_qubits, dtype=np.complex128)
    vec[int(bits, 2)] = 1.0
    return vec


# ---------------------------------------------------------------------------
# Built-in circuits
# ---------------------------------------------------------------------------

def toffoli13() -> Circuit:
    """Doubly-controlled NOT on 3 qubits in 13 slices of H/T/CNOT gates.

    The plain decomposition has 15 gates; the two pairs of parallel
    single-qubit gates share a slice, which brings the depth to 13.
    """
    g = Gate
    slices = (
        (g("H", (3,)),),
        (g("CNOT", (2, 3)),),
        (g("Tdg", (3,)),),
        (g("CNOT", (1, 3)),),
        (g("T", (3,)),),
        (g("CNOT", (2, 3)),),
        (g("Tdg", (3,)),),
        (g("CNOT", (1, 3)),),
        (g("T", (2,)), g("T", (3,))),
        (g("H", (3,)),),
        (g("CNOT", (1, 2)),),
        (g("T", (1,)), g("Tdg", (2,))),
        (g("CNOT", (1, 2)),),
    )
    return Circuit(3, slices, name="toffoli")


def qft(n: int) -> Circuit:
    """Quantum Fourier transform circuit for 3 or 4 qubits.

    Hadamards and controlled phases in the textbook pattern, followed by the
    bit-reversal swaps spelled out as three CNOT slices per swapped pair, so
    the overall product equals the plain DFT matrix.
    """
    if n not in (3, 4):
        raise DomainError(f"qft is provided for 3 or 4 qubits, got {n}")
    g = Gate
    slices: list[tuple[Gate, ...]] = []
    for j in range(1, n + 1):
        slices.append((g("H", (j,)),))
        for k in range(j + 1, n + 1):
            slices.append((g("CP", (k, j), math.pi / 2 ** (k - j)),))
    for a, b in [(1, n)] + ([(2, 3)] if n == 4 else []):
        slices.append((g("CNOT", (a, b)),))
        slices.append((g("CNOT", (b, a)),))
        slices.append((g("CNOT", (a, b)),))
    return Circuit(n, tuple(slices), name=f"qft{n}")


BUILTIN_CIRCUITS = {
    "toffoli": toffoli13,
    "qft3": lambda: qft(3),
    "qft4": lambda: qft(4),
}


# ---------------------------------------------------------------------------
# Oracle matrices
# ---------------------------------------------------------------------------

def dft_matrix(dim: int) -> np.ndarray:
    """Unitary DFT matrix with entries e^{2πi·jk/dim}/√dim."""
    if dim < 1:
        raise DomainError("dim must be >= 1")
    idx = np.arange(dim)
    return np.exp(2j * math.pi * np.outer(idx, idx) / dim) / math.sqrt(dim)


def toffoli_matrix() -> np.ndarray:
    """8x8 permutation: identity except |110⟩ ↔ |111⟩."""
    m = np.eye(8, dtype=np.complex128)
    m[[6, 7]] = m[[7, 6]]
    return m


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_PI_FRACTION = re.compile(r"^(-)?pi(?:/(\d+))?$")


def _parse_phase(token: str, line_no: int) -> float:
    m = _PI_FRACTION.match(token)
    if m:
        value = math.pi / int(m.group(2)) if m.group(2) else math.pi
        return -value if m.group(1) else value
    try:
        return float(token)
    except ValueError:
        raise CircuitParseError(line_no, f"bad phase literal {token!r}") from None


def _render_phase(theta: float) -> str:
    for k in (1, 2, 4, 8):
        value = math.pi / k
        for sign, prefix in ((value, ""), (-value, "-")):
            if theta == sign:
                return f"{prefix}pi" + (f"/{k}" if k > 1 else "")
    return repr(theta)


def _parse_gate(token: str, line_no: int) -> Gate:
    parts = token.split()
    name = parts[0]
    if name not in _SINGLE_KINDS + _TWO_KINDS:
        raise CircuitParseError(line_no, f"unknown gate {name!r}")
    n_qubits = 1 if name in _SINGLE_KINDS else 2
    n_args = n_qubits + (1 if name in _PARAMETRIC else 0)
    if len(parts) != 1 + n_args:
        raise CircuitParseError(
            line_no, f"{name} expects {n_args} argument(s), got {len(parts) - 1}"
        )
    try:
        qubits = tuple(int(p) for p in parts[1 : 1 + n_qubits])
    except ValueError:
        raise CircuitParseError(line_no, f"bad qubit index in {token!r}") from None
    theta = _parse_phase(parts[-1], line_no) if name in _PARAMETRIC else None
    try:
        return Gate(name, qubits, theta)
    except CircuitError as exc:
        raise CircuitParseError(line_no, str(exc)) from None


def parse_circuit(text: str, name: str = "") -> Circuit:
    """Parse the line-oriented circuit format; errors carry line numbers,
    and a qubit count or depth outside the limits of ``Circuit`` is an
    error of the header line."""
    num_qubits = None
    slices: list[tuple[Gate, ...]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if num_qubits is None:
            m = re.match(r"^qubits\s+(\d+)$", line)
            if not m:
                raise CircuitParseError(line_no, "expected 'qubits <n>' header")
            num_qubits, header_line = int(m.group(1)), line_no
            continue
        tokens = [t.strip() for t in line.split(";")]
        if any(not t for t in tokens):
            raise CircuitParseError(line_no, "empty gate between ';' separators")
        gates = tuple(_parse_gate(t, line_no) for t in tokens)
        try:
            _check_slice(gates, num_qubits)
        except CircuitError as exc:
            raise CircuitParseError(line_no, str(exc)) from None
        slices.append(gates)
    if num_qubits is None:
        raise CircuitParseError(1, "missing 'qubits <n>' header")
    try:
        return Circuit(num_qubits, tuple(slices), name=name)
    except CircuitError as exc:
        raise CircuitParseError(header_line, str(exc)) from None


def render_circuit(circuit: Circuit) -> str:
    """Inverse of :func:`parse_circuit` (up to comments and the name)."""
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
