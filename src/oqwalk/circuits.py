"""Gate table, slice compiler, built-in circuits, and the text format.

``GATES`` states each gate kind once: its qubit count, whether it takes a
phase angle, and its matrix.  ``Gate`` checks a gate against it and is the
only place that does; the parser and the compiler read the same table.

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

Phases are ``pi``, ``pi/N`` for a positive integer N, either negated
(``-pi/4``), or decimal radians; any other phase literal is an error of its
line.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, NamedTuple

import numpy as np

from .errors import CircuitError, CircuitParseError, DomainError

__all__ = [
    "Gate",
    "Circuit",
    "MAX_QUBITS",
    "GATES",
    "apply_on_qubits",
    "circuit_unitaries",
    "circuit_product",
    "toffoli13",
    "qft",
    "parse_circuit",
    "basis_state",
    "BUILTIN_CIRCUITS",
]

#: Every engine stores dense 2^n x 2^n operators, so a circuit is capped at
#: 12 qubits (dimension 4096).
MAX_QUBITS = 12


def _phase(theta: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, cmath.exp(1j * theta)]], dtype=np.complex128)


def _fixed(matrix: np.ndarray) -> Callable[[None], np.ndarray]:
    """The matrix function of a kind without a phase: one read-only constant."""
    matrix.flags.writeable = False
    return lambda _: matrix


class GateKind(NamedTuple):
    """A row of ``GATES``."""

    num_qubits: int
    takes_theta: bool
    matrix: Callable[[float | None], np.ndarray]


#: The gate set: each kind's qubit count, whether it takes a phase angle, and
#: its 2x2 or 4x4 (control ⊗ target) unitary as a function of that angle; a
#: kind without an angle returns the same read-only matrix on every call.
GATES = {
    "H": GateKind(1, False, _fixed(np.array([[1, 1], [1, -1]], dtype=np.complex128)
                                   / math.sqrt(2.0))),
    "X": GateKind(1, False, _fixed(np.array([[0, 1], [1, 0]], dtype=np.complex128))),
    "S": GateKind(1, False, _fixed(_phase(math.pi / 2))),
    "Sdg": GateKind(1, False, _fixed(_phase(-math.pi / 2))),
    "T": GateKind(1, False, _fixed(_phase(math.pi / 4))),
    "Tdg": GateKind(1, False, _fixed(_phase(-math.pi / 4))),
    "R": GateKind(1, False, _fixed(_phase(math.pi / 8))),
    "P": GateKind(1, True, _phase),
    "CNOT": GateKind(2, False, _fixed(np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128))),
    "CP": GateKind(2, True, lambda theta: np.diag(
        [1.0, 1.0, 1.0, cmath.exp(1j * theta)]).astype(np.complex128)),
}


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
        if self.kind not in GATES:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        arity, takes_theta, _ = GATES[self.kind]
        qubits = tuple(int(q) for q in self.qubits)
        if len(qubits) != arity:
            raise CircuitError(f"{self.kind} takes {arity} qubit(s), got {qubits}")
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"{self.kind} qubits must be distinct, got {qubits}")
        if any(q < 1 for q in qubits):
            raise CircuitError(f"qubit indices are 1-based, got {qubits}")
        if takes_theta:
            if self.theta is None or not math.isfinite(self.theta):
                raise CircuitError(f"{self.kind} requires a finite phase angle")
        elif self.theta is not None:
            raise CircuitError(f"{self.kind} takes no phase angle")
        if self.kind == "CP":
            qubits = tuple(sorted(qubits))
        object.__setattr__(self, "qubits", qubits)

    def matrix(self) -> np.ndarray:
        """The gate's 2x2, or 4x4 control ⊗ target, unitary; read-only and
        shared for a kind without a phase angle."""
        return GATES[self.kind].matrix(self.theta)


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
        """Read-only [U_1 .. U_T], compiled on first use: each slice's gates
        applied to the identity in turn (their order is irrelevant, as they
        act on disjoint qubits).  The slices were checked on construction,
        and the circuit is immutable, so every chain, product and model
        built from it shares one compile."""
        eye = np.eye(2**self.num_qubits, dtype=np.complex128)
        out = tuple(
            reduce(lambda u, g: apply_on_qubits(g.matrix(), g.qubits, u), gates, eye)
            for gates in self.slices
        )
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


def apply_on_qubits(op: np.ndarray, qubits, mat: np.ndarray) -> np.ndarray:
    """The 2^k x 2^k ``op`` applied to the k ``qubits`` of the row index of
    ``mat``, which has 2^n rows (a vector, or a matrix of any column count);
    the first of ``qubits`` is the most significant bit of ``op``'s index.

    Equal to (``op`` embedded in the n-qubit register) @ ``mat``, computed
    as one ``matmul`` on the reshaped rows, so each entry costs one 2^k-term
    sum.  One qubit q splits the rows into (2^(q-1), 2, rest) and ``op``
    multiplies every (2, rest) slab; k qubits are transposed to the front,
    multiplied as one (2^k, rest) matrix and transposed back.
    """
    if len(qubits) == 1:
        (q,) = qubits
        return (op @ mat.reshape(2 ** (q - 1), 2, -1)).reshape(mat.shape)
    n = mat.shape[0].bit_length() - 1
    front = [q - 1 for q in qubits]
    order = front + [a for a in range(n + 1) if a not in front]
    rows = mat.reshape((2,) * n + (-1,)).transpose(order)
    out = (op @ rows.reshape(op.shape[0], -1)).reshape(rows.shape)
    return out.transpose(np.argsort(order)).reshape(mat.shape)


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
    """Quantum Fourier transform circuit on n qubits, 1 ≤ n ≤ 12.

    Hadamards and controlled phases in the textbook pattern, followed by the
    bit-reversal swaps of the pairs (j, n+1−j), j ≤ n/2, each spelled out as
    three CNOT slices, so the overall product equals the plain DFT matrix.
    The depth is n(n+1)/2 + 3⌊n/2⌋.
    """
    g = Gate

    def slices():
        for j in range(1, n + 1):
            yield (g("H", (j,)),)
            for k in range(j + 1, n + 1):
                yield (g("CP", (k, j), math.pi / 2 ** (k - j)),)
        for a in range(1, n // 2 + 1):
            b = n + 1 - a
            yield (g("CNOT", (a, b)),)
            yield (g("CNOT", (b, a)),)
            yield (g("CNOT", (a, b)),)

    # Circuit checks n before it reads a slice
    return Circuit(n, slices(), name=f"qft{n}")


BUILTIN_CIRCUITS = {
    "toffoli": toffoli13,
    "qft3": lambda: qft(3),
    "qft4": lambda: qft(4),
}


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_PI_FRACTION = re.compile(r"^(-)?pi(?:/([0-9]+))?$")


def _parse_phase(token: str, line_no: int) -> float:
    m = _PI_FRACTION.match(token)
    try:
        if m:
            value = math.pi / int(m.group(2)) if m.group(2) else math.pi
            return -value if m.group(1) else value
        if token.isascii() and "_" not in token:  # float() also reads 1_5 and ５
            return float(token)
    except (ValueError, ArithmeticError):  # pi/0, or N too long or too large
        pass
    raise CircuitParseError(line_no, f"bad phase literal {token!r}")


def _parse_gate(token: str, line_no: int) -> Gate:
    name, *args = token.split()
    if name not in GATES:
        raise CircuitParseError(line_no, f"unknown gate {name!r}")
    n_qubits, takes_theta, _ = GATES[name]
    n_args = n_qubits + takes_theta
    if len(args) != n_args:
        raise CircuitParseError(line_no, f"{name} expects {n_args} argument(s), got {len(args)}")
    if not all(p.isascii() and p.isdigit() for p in args[:n_qubits]):
        raise CircuitParseError(line_no, f"bad qubit index in {token!r}")
    qubits = tuple(int(p) for p in args[:n_qubits])
    theta = _parse_phase(args[-1], line_no) if takes_theta else None
    try:
        return Gate(name, qubits, theta)
    except CircuitError as exc:
        raise CircuitParseError(line_no, str(exc)) from None


def parse_circuit(text: str, name: str = "") -> Circuit:
    """Parse the line-oriented circuit format; errors carry line numbers,
    and a qubit count or depth outside the limits of ``Circuit`` is an
    error of the header line.  A ``Gate`` is immutable, so each distinct
    gate token is parsed once and its gate shared by every slice that
    repeats it."""
    num_qubits = None
    slices: list[tuple[Gate, ...]] = []
    parsed: dict[str, Gate] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if num_qubits is None:
            m = re.match(r"^qubits\s+([0-9]+)$", line)
            if not m:
                raise CircuitParseError(line_no, "expected 'qubits <n>' header")
            num_qubits, header_line = int(m.group(1)), line_no
            continue
        tokens = [t.strip() for t in line.split(";")]
        if any(not t for t in tokens):
            raise CircuitParseError(line_no, "empty gate between ';' separators")
        for t in tokens:
            if t not in parsed:
                parsed[t] = _parse_gate(t, line_no)
        gates = tuple(parsed[t] for t in tokens)
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
