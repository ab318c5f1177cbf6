import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqwalk.circuits import (
    BUILTIN_CIRCUITS,
    GATES,
    MAX_QUBITS,
    Circuit,
    Gate,
    apply_on_qubits,
    basis_state,
    circuit_product,
    circuit_unitaries,
    parse_circuit,
    qft,
    toffoli13,
)
from oqwalk import circuits
from oqwalk.errors import CircuitError, CircuitParseError
from oqwalk.linalg import frobenius
from oracles import dft_matrix, render_circuit, toffoli_matrix
from tensordot_compile import tensordot_slice

EPS = np.finfo(np.float64).eps


def embed_oracle(gate: Gate, num_qubits: int) -> np.ndarray:
    """Brute-force embedding: enumerate basis states and apply the gate matrix
    to the extracted bits.  Independent of the tensor-axis compile path."""
    local = gate.matrix()
    k = len(gate.qubits)
    dim = 2**num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    shifts = [num_qubits - q for q in gate.qubits]  # qubit 1 = MSB
    for b in range(dim):
        in_idx = 0
        for s in shifts:
            in_idx = (in_idx << 1) | ((b >> s) & 1)
        for out_idx in range(2**k):
            amp = local[out_idx, in_idx]
            if amp == 0:
                continue
            b_out = b
            for pos, s in enumerate(shifts):
                bit = (out_idx >> (k - 1 - pos)) & 1
                b_out = (b_out & ~(1 << s)) | (bit << s)
            out[b_out, b] += amp
    return out


def compile_slice(gates, num_qubits: int) -> np.ndarray:
    """The unitary of one slice, compiled as a one-slice circuit."""
    return circuit_unitaries(Circuit(num_qubits, (tuple(gates),)))[0]


def unitarity_residual(u) -> float:
    """‖u†u − I‖_F, the residual ``oqw validate`` reports."""
    return frobenius(u.conj().T @ u - np.eye(u.shape[0]))


SINGLE_KINDS = tuple(k for k, row in GATES.items() if row.num_qubits == 1)
PHASES = st.sampled_from([math.pi, -math.pi / 2, math.pi / 4, -math.pi / 8]) | (
    st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def random_slice(draw, num_qubits):
    """Disjoint gates over a random subset of the qubits, at least one gate."""
    free = draw(st.permutations(range(1, num_qubits + 1)))
    gates = []
    while free and (not gates or draw(st.booleans())):
        kind = draw(st.sampled_from(SINGLE_KINDS + ("CNOT", "CP") * (len(free) > 1)))
        arity = 1 if kind in SINGLE_KINDS else 2
        qubits, free = tuple(free[:arity]), free[arity:]
        theta = draw(PHASES) if GATES[kind].takes_theta else None
        gates.append(Gate(kind, qubits, theta))
    return tuple(gates)


@st.composite
def random_circuit(draw, max_qubits=6):
    """1 to max_qubits qubits, 1 to 6 random slices."""
    n = draw(st.integers(1, max_qubits))
    return Circuit(n, tuple(draw(st.lists(random_slice(n), min_size=1, max_size=6))))


R2 = 1 / math.sqrt(2.0)

#: Every kind of the gate table with a sample gate and its literal matrix.
LITERAL_MATRICES = [
    (Gate("H", (1,)), [[R2, R2], [R2, -R2]]),
    (Gate("X", (1,)), [[0, 1], [1, 0]]),
    (Gate("S", (1,)), np.diag([1, 1j])),
    (Gate("Sdg", (1,)), np.diag([1, -1j])),
    (Gate("T", (1,)), np.diag([1, R2 + R2 * 1j])),
    (Gate("Tdg", (1,)), np.diag([1, R2 - R2 * 1j])),
    (Gate("R", (1,)), np.diag([1, math.cos(math.pi / 8) + 1j * math.sin(math.pi / 8)])),
    (Gate("P", (1,), 0.3), np.diag([1, math.cos(0.3) + 1j * math.sin(0.3)])),
    (Gate("CNOT", (1, 2)), [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    (Gate("CP", (1, 2), math.pi / 2), np.diag([1, 1, 1, 1j])),
]


class TestGateMatrix:
    def test_literals_cover_the_gate_table(self):
        assert sorted(g.kind for g, _ in LITERAL_MATRICES) == sorted(GATES)

    @pytest.mark.parametrize(
        "gate, expected", LITERAL_MATRICES, ids=[g.kind for g, _ in LITERAL_MATRICES]
    )
    def test_matrix_of_every_kind(self, gate, expected):
        got = gate.matrix()
        assert got.dtype == np.complex128
        assert got.shape == (2 ** len(gate.qubits),) * 2
        assert np.allclose(got, expected, rtol=0, atol=1e-15)

    def test_hadamard_squares_to_identity(self):
        h = Gate("H", (1,)).matrix()
        assert np.allclose(h @ h, np.eye(2), atol=1e-15)

    def test_t_and_tdg_cancel(self):
        assert np.allclose(
            Gate("T", (1,)).matrix() @ Gate("Tdg", (1,)).matrix(), np.eye(2), atol=1e-15
        )

    @pytest.mark.parametrize("kind", [k for k, row in GATES.items() if not row.takes_theta])
    def test_a_fixed_kind_shares_one_read_only_matrix(self, kind):
        gate = Gate(kind, tuple(range(1, GATES[kind].num_qubits + 1)))
        first = gate.matrix()
        assert first is gate.matrix()
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 0.0

    def test_a_phase_kind_returns_a_new_array(self):
        gate = Gate("P", (1,), 0.3)
        first = gate.matrix()
        first[0, 0] = 0.0
        assert gate.matrix()[0, 0] == 1.0


class TestGateChecks:
    """``Gate`` is the one validator of a gate; each bad gate is a CircuitError."""

    @pytest.mark.parametrize(
        "kind, qubits, theta, match",
        [
            ("Y", (1,), None, "unknown gate kind 'Y'"),
            ("cnot", (1, 2), None, "unknown gate kind 'cnot'"),
            ("P", (1,), None, "P requires a finite phase angle"),
            ("CP", (1, 2), None, "CP requires a finite phase angle"),
            ("P", (1,), math.nan, "P requires a finite phase angle"),
            ("P", (1,), -math.inf, "P requires a finite phase angle"),
            ("CP", (1, 2), math.inf, "CP requires a finite phase angle"),
            ("H", (1,), 0.5, "H takes no phase angle"),
            ("T", (1,), 0.0, "T takes no phase angle"),
            ("CNOT", (1, 2), math.pi, "CNOT takes no phase angle"),
            ("H", (1, 2), None, r"H takes 1 qubit\(s\), got \(1, 2\)"),
            ("P", (), 0.1, r"P takes 1 qubit\(s\), got \(\)"),
            ("CNOT", (1,), None, r"CNOT takes 2 qubit\(s\), got \(1,\)"),
            ("CP", (1, 2, 3), 0.1, r"CP takes 2 qubit\(s\)"),
            ("CNOT", (2, 2), None, "CNOT qubits must be distinct"),
            ("CP", (3, 3), 0.1, "CP qubits must be distinct"),
            ("H", (0,), None, "qubit indices are 1-based"),
            ("CNOT", (0, 1), None, "qubit indices are 1-based"),
            ("CP", (2, -1), 0.1, "qubit indices are 1-based"),
        ],
    )
    def test_bad_gate_is_a_circuit_error(self, kind, qubits, theta, match):
        with pytest.raises(CircuitError, match=match):
            Gate(kind, qubits, theta)


class TestEmbed:
    """A one-gate slice is the gate embedded in the full register."""

    def test_cnot_2_3_matches_tensor_expansion(self):
        # I ⊗ |0><0| ⊗ I + I ⊗ |1><1| ⊗ X
        x = Gate("X", (1,)).matrix()
        p0, p1, eye = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2)
        expected = np.kron(eye, np.kron(p0, eye)) + np.kron(eye, np.kron(p1, x))
        got = compile_slice([Gate("CNOT", (2, 3))], 3)
        assert np.allclose(got, expected, atol=1e-15)

    def test_single_qubit_trivial(self):
        got = compile_slice([Gate("H", (1,))], 1)
        assert np.allclose(got, Gate("H", (1,)).matrix(), atol=1e-15)

    def test_cphase_nonadjacent_against_enumeration(self):
        g = Gate("CP", (3, 1), math.pi / 2)
        assert np.allclose(compile_slice([g], 3), embed_oracle(g, 3), atol=1e-14)

    @pytest.mark.parametrize(
        "gate,n",
        [
            (Gate("H", (2,)), 3),
            (Gate("X", (3,)), 3),
            (Gate("T", (1,)), 2),
            (Gate("CNOT", (1, 3)), 3),
            (Gate("CNOT", (3, 1)), 3),
            (Gate("CNOT", (2, 4)), 4),
            (Gate("CP", (1, 4), math.pi / 8), 4),
            (Gate("P", (2,), 0.3), 3),
        ],
    )
    def test_against_enumeration_oracle(self, gate, n):
        assert np.allclose(compile_slice([gate], n), embed_oracle(gate, n), atol=1e-14)

    def test_out_of_range(self):
        with pytest.raises(CircuitError, match="exceeds qubit count 2"):
            Circuit(2, ((Gate("H", (3,)),),))


class TestSliceUnitary:
    def test_disjoint_single_qubit_gates(self):
        got = compile_slice([Gate("T", (2,)), Gate("T", (3,))], 3)
        expected = embed_oracle(Gate("T", (2,)), 3) @ embed_oracle(Gate("T", (3,)), 3)
        assert np.allclose(got, expected, atol=1e-15)

    def test_empty_slice_rejected(self):
        with pytest.raises(CircuitError, match="slice 1: empty slice"):
            Circuit(3, ((),))

    def test_cnot_and_hadamard_matches_kron(self):
        got = compile_slice([Gate("CNOT", (1, 2)), Gate("H", (3,))], 3)
        expected = np.kron(Gate("CNOT", (1, 2)).matrix(), Gate("H", (1,)).matrix())
        assert np.allclose(got, expected, atol=1e-15)

    def test_overlapping_qubits(self):
        with pytest.raises(CircuitError, match=r"slice 1: qubit\(s\) \[1\] used twice"):
            Circuit(2, ((Gate("H", (1,)), Gate("CNOT", (1, 2))),))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), random_slice(n))))
    def test_equals_the_product_of_enumerated_embeddings(self, case):
        n, gates = case
        expected = reduce(lambda acc, g: embed_oracle(g, n) @ acc, gates, np.eye(2**n))
        assert np.abs(compile_slice(gates, n) - expected).max() <= 1e-14


@st.composite
def gate_and_operand(draw):
    """A one- or two-qubit gate on qubits in any order of an n-qubit register,
    and a random complex operand of shape (2^n,) or (2^n, m)."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from([k for k, row in GATES.items() if row.num_qubits <= n]))
    qubits = draw(st.permutations(range(1, n + 1)))[: GATES[kind].num_qubits]
    gate = Gate(kind, tuple(qubits), draw(PHASES) if GATES[kind].takes_theta else None)
    shape = (2**n,) + draw(st.sampled_from([(), (1,), (3,), (2**n,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return gate, n, rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestApplyOnQubits:
    @settings(max_examples=200, deadline=None)
    @given(gate_and_operand())
    def test_equals_the_enumerated_embedding_times_the_operand(self, case):
        gate, n, mat = case
        got = apply_on_qubits(gate.matrix(), gate.qubits, mat)
        assert got.shape == mat.shape
        # each entry is a sum of 2^k products of gate entries (|.| <= 1) and
        # operand entries, rounded a few times
        k = len(gate.qubits)
        bound = 4 * 2**k * EPS * np.abs(mat).max()
        assert np.abs(got - embed_oracle(gate, n) @ mat).max() <= bound

    # Compiled slices equal those of the tensordot formulation bit for bit.
    # ``Circuit`` folds each slice's gates over the identity, and the
    # gates act on disjoint qubits, so when a gate is applied the matrix is
    # still the identity on that gate's qubits: in each column, just one of
    # the 2^k rows the gate mixes is non-zero.  Each entry of the result is
    # therefore a single product op[i, j]·M[j, c]; the gate's other terms
    # are exact zeros, which leave a sum unchanged whatever its order.  So
    # every entry of a slice is one product of one entry of each gate, and
    # both formulations hand those products to the same BLAS gemm.
    @pytest.mark.parametrize(
        "circuit",
        [f() for f in BUILTIN_CIRCUITS.values()] + [qft(n) for n in range(5, 9)],
        ids=lambda c: c.name,
    )
    def test_compiled_slices_are_those_of_tensordot(self, circuit):
        for gates, u in zip(circuit.slices, circuit_unitaries(circuit)):
            assert u.tobytes() == tensordot_slice(gates, circuit.num_qubits).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), random_slice(n))))
    def test_random_slices_are_those_of_tensordot(self, case):
        n, gates = case
        assert compile_slice(gates, n).tobytes() == tensordot_slice(gates, n).tobytes()


class TestCircuitLimits:
    """``Circuit`` holds every shape limit: 1..MAX_QUBITS qubits, >= 1 slice."""

    def test_largest_register_is_accepted(self):
        assert Circuit(MAX_QUBITS, ((Gate("H", (MAX_QUBITS,)),),)).num_qubits == 12

    @pytest.mark.parametrize("n", [0, MAX_QUBITS + 1, 40])
    def test_qubit_count_outside_the_limit(self, n):
        with pytest.raises(CircuitError, match="1 to 12 qubits"):
            Circuit(n, ((Gate("H", (1,)),),))

    def test_no_slices(self):
        with pytest.raises(CircuitError, match="at least one slice"):
            Circuit(2, ())

    def test_circuit_checks_the_register_before_its_slices(self):
        with pytest.raises(CircuitError, match="1 to 12 qubits"):
            Circuit(MAX_QUBITS + 1, ((Gate("H", (MAX_QUBITS + 2,)),),))

    @pytest.mark.parametrize(
        "text, match, header_line",
        [("qubits 13\nH 13\n", "1 to 12 qubits", 1),
         ("# c\nqubits 2\n", "at least one slice", 2)],
    )
    def test_parse_reports_the_header_line(self, text, match, header_line):
        with pytest.raises(CircuitParseError, match=match) as err:
            parse_circuit(text)
        assert err.value.line_no == header_line


class TestBuiltinCircuits:
    def test_toffoli_has_13_slices(self):
        assert toffoli13().depth == 13

    def test_qft3_has_9_slices(self):
        assert qft(3).depth == 9

    def test_qft4_has_16_slices(self):
        assert qft(4).depth == 16

    @pytest.mark.parametrize("n", [0, 13])
    def test_unsupported_qft_size(self, n):
        with pytest.raises(CircuitError, match="1 to 12 qubits"):
            qft(n)

    def test_qft_depth(self):
        for n in range(1, 13):
            assert qft(n).depth == n * (n + 1) // 2 + 3 * (n // 2)

    @pytest.mark.parametrize("n", [3, 4])
    def test_qft3_and_qft4_keep_their_slices(self, n):
        # the swap pairs as they were spelled out for 3 and 4 qubits
        swaps = [(1, n)] + ([(2, 3)] if n == 4 else [])
        slices = [(Gate("H", (j,)),) if k == j else (Gate("CP", (k, j), math.pi / 2 ** (k - j)),)
                  for j in range(1, n + 1) for k in range(j, n + 1)]
        for a, b in swaps:
            slices += [(Gate("CNOT", (a, b)),), (Gate("CNOT", (b, a)),), (Gate("CNOT", (a, b)),)]
        old = Circuit(n, tuple(slices), name=f"qft{n}")
        assert qft(n) == old
        for u, v in zip(circuit_unitaries(qft(n)), circuit_unitaries(old)):
            assert u.tobytes() == v.tobytes()

    @pytest.mark.parametrize("name", sorted(BUILTIN_CIRCUITS))
    def test_every_slice_is_unitary(self, name):
        for u in circuit_unitaries(BUILTIN_CIRCUITS[name]()):
            assert unitarity_residual(u) <= 1e-12

    def test_toffoli_product_is_permutation(self):
        err = np.linalg.norm(circuit_product(toffoli13()) - toffoli_matrix())
        assert err < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_qft_products_match_dft(self, n):
        err = np.linalg.norm(circuit_product(qft(n)) - dft_matrix(2**n))
        assert err < 1e-12

    def test_double_hadamard_cancels(self):
        c = Circuit(1, ((Gate("H", (1,)),), (Gate("H", (1,)),)))
        assert np.allclose(circuit_product(c), np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("name", sorted(BUILTIN_CIRCUITS))
    def test_compiled_once_read_only_and_equal_to_a_fresh_compile(self, name):
        circuit = BUILTIN_CIRCUITS[name]()
        first, second = circuit_unitaries(circuit), circuit_unitaries(circuit)
        assert first is not second
        assert all(a is b for a, b in zip(first, second))
        fresh = [compile_slice(s, circuit.num_qubits) for s in circuit.slices]
        assert len(first) == len(fresh)
        for u, v in zip(first, fresh):
            assert not u.flags.writeable
            assert np.array_equal(u, v)
        with pytest.raises(ValueError):
            first[0][0, 0] = 0.0

    def test_product_of_one_slice_is_a_writeable_copy(self):
        c = Circuit(1, ((Gate("H", (1,)),),))
        product = circuit_product(c)
        assert product.flags.writeable
        assert product is not circuit_unitaries(c)[0]

    def test_single_slice_unitaries(self):
        c = Circuit(1, ((Gate("H", (1,)),),))
        us = circuit_unitaries(c)
        assert len(us) == 1
        assert np.allclose(us[0], Gate("H", (1,)).matrix(), atol=1e-15)


class TestDftMatrix:
    def test_dim_one(self):
        assert np.allclose(dft_matrix(1), [[1.0]])

    def test_two_point_is_hadamard(self):
        assert np.allclose(dft_matrix(2), Gate("H", (1,)).matrix(), atol=1e-15)

    def test_unitary_at_eight(self):
        assert unitarity_residual(dft_matrix(8)) <= 1e-12


class TestParse:
    def test_minimal(self):
        c = parse_circuit("qubits 1\nH 1\n")
        assert c.num_qubits == 1
        assert c.slices == ((Gate("H", (1,)),),)

    def test_two_gates_one_slice(self):
        c = parse_circuit("qubits 3\nT 2 ; T 3\n")
        assert len(c.slices) == 1
        assert c.slices[0] == (Gate("T", (2,)), Gate("T", (3,)))

    def test_duplicate_qubit_in_gate(self):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit("qubits 2\nCNOT 1 1\n")
        assert err.value.line_no == 2

    def test_overlap_within_slice(self):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit("qubits 3\nH 1 ; X 1\n")
        assert err.value.line_no == 2

    def test_unknown_gate(self):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit("qubits 2\nFOO 1\n")
        assert "FOO" in str(err.value)

    def test_qubit_out_of_range(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("qubits 2\nH 3\n")

    def test_missing_header(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("H 1\n")

    def test_comments_and_blanks(self):
        text = "# a comment\n\nqubits 2\n H 1  # trailing\n\nCNOT 1 2\n"
        c = parse_circuit(text)
        assert c.depth == 2

    @pytest.mark.parametrize(
        "literal,value",
        [("pi/2", math.pi / 2), ("-pi/4", -math.pi / 4), ("pi/8", math.pi / 8),
         ("pi", math.pi), ("0.3", 0.3), ("-1.5", -1.5), ("1e-05", 1e-05), ("+.5", 0.5),
         ("2.", 2.0), ("-1.5E2", -150.0)],
    )
    def test_phase_literals(self, literal, value):
        c = parse_circuit(f"qubits 2\nP 1 {literal}\n")
        assert c.slices[0][0].theta == value

    def test_bad_phase(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("qubits 2\nP 1 half\n")

    @pytest.mark.parametrize(
        "gate",
        ["CP 1 2 pi/0", "P 2 -pi/00", f"P 1 pi/{'9' * 400}", f"CP 2 1 -pi/{'7' * 5000}",
         "P 1 pi/2.5", "P 1 pi/-2", "P 1 2pi", "P 1 pi/",
         # float() and int() also read "_" separators and non-ASCII digits
         "P 2 1_5.5", "CP 1 2 pi/\u0664", "P 1 \uff15", "P 1 0.\u0665", "P 1 -pi/1_6"],
    )
    def test_phase_literal_outside_the_format_is_an_error_of_its_line(self, gate):
        with pytest.raises(CircuitParseError, match="bad phase literal") as err:
            parse_circuit(f"qubits 2\nH 1\n{gate}\n")
        assert err.value.line_no == 3

    @pytest.mark.parametrize(
        "gate, match",
        [("P 1 nan", "P requires a finite phase angle"),
         ("CP 1 2 1e400", "CP requires a finite phase angle"),
         ("H 0", "qubit indices are 1-based"),
         ("CNOT 2 2", "CNOT qubits must be distinct")],
    )
    def test_gate_checks_are_errors_of_their_line(self, gate, match):
        with pytest.raises(CircuitParseError, match=f"line 2: {match}"):
            parse_circuit(f"qubits 2\n{gate}\n")

    @pytest.mark.parametrize(
        "text, match",
        [("qubits \u0661\u0662\nH 1\n", "line 1: expected 'qubits <n>' header"),
         ("qubits 1_2\nH 1\n", "line 1: expected 'qubits <n>' header"),
         ("qubits \uff12\nH 1\n", "line 1: expected 'qubits <n>' header"),
         ("qubits 12\nH 1_0\n", "line 2: bad qubit index in 'H 1_0'"),
         ("qubits 12\nH \u0661\n", "line 2: bad qubit index"),
         ("qubits 12\nCNOT 1 \u00b2\n", "line 2: bad qubit index"),
         ("qubits 12\nH +1\n", "line 2: bad qubit index"),
         ("qubits 12\nH -1\n", "line 2: bad qubit index")],
    )
    def test_counts_and_indices_are_ascii_digits(self, text, match):
        # int() also reads "_" separators, signs and non-ASCII digits
        with pytest.raises(CircuitParseError, match=match):
            parse_circuit(text)

    def test_a_repeated_token_is_parsed_once_and_checked_on_its_own_line(self, monkeypatch):
        # a Gate is immutable, so each distinct token is parsed once and its
        # gate shared; the slice checks still run on every line and name it
        parsed = []
        parse_gate = circuits._parse_gate
        monkeypatch.setattr(
            circuits, "_parse_gate", lambda t, n: parsed.append(t) or parse_gate(t, n)
        )
        c = parse_circuit("qubits 3\nH 1 ; X 2\nH 1\nX 2 ; H 1\n")
        assert parsed == ["H 1", "X 2"]
        assert c.slices[1][0] is c.slices[0][0] is c.slices[2][1]
        with pytest.raises(CircuitParseError, match=r"line 4: .*\[1\] used twice"):
            parse_circuit("qubits 3\nH 1\nX 2\nH 1 ; H 1\n")

    @pytest.mark.parametrize(
        "body, match",
        [("H 1 ; H 1\nFOO 1", r"line 2: slice: qubit\(s\) \[1\] used twice"),
         ("FOO 1\nH 1 ; H 1", "line 2: unknown gate 'FOO'")],
    )
    def test_the_first_bad_line_is_reported_whichever_check_it_fails(self, body, match):
        # each slice is checked as its line is parsed: ``Circuit`` checks the
        # slices again, but only once every line has parsed, so leaving the
        # slice checks to it would report a later line's syntax error first
        with pytest.raises(CircuitParseError, match=match):
            parse_circuit(f"qubits 2\n{body}\n")

    def test_cp_normalizes_order(self):
        c = parse_circuit("qubits 3\nCP 3 1 pi/2\n")
        assert c.slices[0][0].qubits == (1, 3)

    @settings(max_examples=200, deadline=None)
    @given(random_circuit())
    def test_round_trip_of_random_circuits(self, circuit):
        assert parse_circuit(render_circuit(circuit)) == circuit

    @pytest.mark.parametrize("name", sorted(BUILTIN_CIRCUITS))
    def test_round_trip(self, name):
        c = BUILTIN_CIRCUITS[name]()
        parsed = parse_circuit(render_circuit(c))
        assert parsed.num_qubits == c.num_qubits
        assert parsed.slices == c.slices
