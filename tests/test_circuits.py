import math

import numpy as np
import pytest

from oqwalk.circuits import (
    BUILTIN_CIRCUITS,
    Circuit,
    Gate,
    basis_state,
    circuit_product,
    circuit_unitaries,
    dft_matrix,
    embed,
    gate_matrix,
    parse_circuit,
    qft,
    render_circuit,
    slice_unitary,
    toffoli13,
    toffoli_matrix,
)
from oqwalk.errors import CircuitError, CircuitParseError, DomainError
from oqwalk.linalg import is_unitary, kron


def embed_oracle(gate: Gate, num_qubits: int) -> np.ndarray:
    """Brute-force embedding: enumerate basis states and apply the gate matrix
    to the extracted bits.  Independent of the kron-placement code path."""
    local = gate_matrix(gate.kind, gate.theta)
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


class TestGateMatrix:
    def test_s_gate(self):
        assert np.allclose(gate_matrix("S"), np.diag([1, 1j]), atol=1e-15)

    def test_r_gate(self):
        assert np.allclose(
            gate_matrix("R"), np.diag([1, np.exp(1j * np.pi / 8)]), atol=1e-15
        )

    def test_hadamard_squares_to_identity(self):
        h = gate_matrix("H")
        assert np.allclose(h @ h, np.eye(2), atol=1e-15)

    def test_t_and_tdg_cancel(self):
        assert np.allclose(
            gate_matrix("T") @ gate_matrix("Tdg"), np.eye(2), atol=1e-15
        )

    def test_cnot_layout(self):
        expected = np.eye(4)[:, [0, 1, 3, 2]]
        assert np.allclose(gate_matrix("CNOT"), expected, atol=1e-15)

    def test_cphase_diagonal(self):
        got = gate_matrix("CP", math.pi / 2)
        assert np.allclose(got, np.diag([1, 1, 1, 1j]), atol=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            gate_matrix("Y")

    def test_theta_arity(self):
        with pytest.raises(DomainError):
            gate_matrix("P")
        with pytest.raises(DomainError):
            gate_matrix("H", 0.5)


class TestEmbed:
    def test_cnot_2_3_matches_tensor_expansion(self):
        # I ⊗ |0><0| ⊗ I + I ⊗ |1><1| ⊗ X
        x = gate_matrix("X")
        expected = kron(np.eye(2), kron(np.diag([1.0, 0.0]), np.eye(2))) + kron(
            np.eye(2), kron(np.diag([0.0, 1.0]), x)
        )
        got = embed(Gate("CNOT", (2, 3)), 3)
        assert np.allclose(got, expected, atol=1e-15)

    def test_single_qubit_trivial(self):
        assert np.allclose(embed(Gate("H", (1,)), 1), gate_matrix("H"), atol=1e-15)

    def test_cphase_nonadjacent_against_enumeration(self):
        g = Gate("CP", (3, 1), math.pi / 2)
        assert np.allclose(embed(g, 3), embed_oracle(g, 3), atol=1e-14)

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
        assert np.allclose(embed(gate, n), embed_oracle(gate, n), atol=1e-14)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            embed(Gate("H", (3,)), 2)


class TestSliceUnitary:
    def test_disjoint_single_qubit_gates(self):
        got = slice_unitary([Gate("T", (2,)), Gate("T", (3,))], 3)
        expected = embed(Gate("T", (2,)), 3) @ embed(Gate("T", (3,)), 3)
        assert np.allclose(got, expected, atol=1e-15)

    def test_empty_slice_rejected(self):
        with pytest.raises(CircuitError):
            slice_unitary([], 3)

    def test_cnot_and_hadamard_matches_kron(self):
        got = slice_unitary([Gate("CNOT", (1, 2)), Gate("H", (3,))], 3)
        expected = kron(gate_matrix("CNOT"), gate_matrix("H"))
        assert np.allclose(got, expected, atol=1e-15)

    def test_overlapping_qubits(self):
        with pytest.raises(CircuitError):
            slice_unitary([Gate("H", (1,)), Gate("CNOT", (1, 2))], 2)


class TestBuiltinCircuits:
    def test_toffoli_has_13_slices(self):
        assert toffoli13().depth == 13

    def test_qft3_has_9_slices(self):
        assert qft(3).depth == 9

    def test_qft4_has_16_slices(self):
        assert qft(4).depth == 16

    def test_unsupported_qft_size(self):
        with pytest.raises(DomainError):
            qft(5)

    @pytest.mark.parametrize("name", sorted(BUILTIN_CIRCUITS))
    def test_every_slice_is_unitary(self, name):
        for u in circuit_unitaries(BUILTIN_CIRCUITS[name]()):
            assert is_unitary(u, 1e-12)

    def test_toffoli_product_is_permutation(self):
        err = np.linalg.norm(circuit_product(toffoli13()) - toffoli_matrix())
        assert err < 1e-12

    def test_qft_products_match_dft(self):
        for n in (3, 4):
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
        fresh = [slice_unitary(s, circuit.num_qubits) for s in circuit.slices]
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
        assert np.allclose(us[0], gate_matrix("H"), atol=1e-15)


class TestDftMatrix:
    def test_dim_one(self):
        assert np.allclose(dft_matrix(1), [[1.0]])

    def test_two_point_is_hadamard(self):
        assert np.allclose(dft_matrix(2), gate_matrix("H"), atol=1e-15)

    def test_unitary_at_eight(self):
        assert is_unitary(dft_matrix(8), 1e-12)

    def test_bad_dim(self):
        with pytest.raises(DomainError):
            dft_matrix(0)


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
         ("pi", math.pi), ("0.3", 0.3), ("-1.5", -1.5)],
    )
    def test_phase_literals(self, literal, value):
        c = parse_circuit(f"qubits 2\nP 1 {literal}\n")
        assert c.slices[0][0].theta == value

    def test_bad_phase(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("qubits 2\nP 1 half\n")

    def test_cp_normalizes_order(self):
        c = parse_circuit("qubits 3\nCP 3 1 pi/2\n")
        assert c.slices[0][0].qubits == (1, 3)

    @pytest.mark.parametrize("name", sorted(BUILTIN_CIRCUITS))
    def test_round_trip(self, name):
        c = BUILTIN_CIRCUITS[name]()
        parsed = parse_circuit(render_circuit(c))
        assert parsed.num_qubits == c.num_qubits
        assert parsed.slices == c.slices
