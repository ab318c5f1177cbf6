import numpy as np
import pytest

from oqwalk.errors import DomainError
from oqwalk.linalg import (
    dagger,
    is_unitary,
    psd_check,
    trace_norm,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_matrix(rng, n):
    return rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))


def random_hermitian(rng, n):
    a = random_matrix(rng, n)
    return a + a.conj().T


class TestDagger:
    def test_identity(self):
        assert np.array_equal(dagger(np.eye(2)), np.eye(2))

    def test_raising_lowering(self):
        assert np.array_equal(
            dagger(np.array([[0, 1], [0, 0]])), np.array([[0, 0], [1, 0]])
        )

    def test_hadamard_involution(self):
        assert np.allclose(dagger(H) @ H, np.eye(2), atol=1e-15)

    def test_double_dagger(self):
        rng = np.random.default_rng(1)
        a = random_matrix(rng, 5)
        assert np.array_equal(dagger(dagger(a)), a)

    def test_antihomomorphism_exact_on_integers(self):
        rng = np.random.default_rng(2)
        a = (rng.integers(-4, 5, (3, 3)) + 1j * rng.integers(-4, 5, (3, 3))).astype(
            complex
        )
        b = (rng.integers(-4, 5, (3, 3)) + 1j * rng.integers(-4, 5, (3, 3))).astype(
            complex
        )
        assert np.array_equal(dagger(a @ b), dagger(b) @ dagger(a))


class TestTraceNorm:
    def test_diagonal(self):
        assert trace_norm(np.diag([0.5, -0.5])) == pytest.approx(1.0)

    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_two_by_two_eigenvalue_formula(self):
        # |+><+| - |0><0| has eigenvalues ±sqrt(1 - |<+|0>|^2)
        plus = np.full((2, 2), 0.5, dtype=complex)
        diff = plus - np.diag([1.0, 0.0])
        overlap_sq = 0.5
        assert trace_norm(diff) == pytest.approx(2 * np.sqrt(1 - overlap_sq), abs=1e-12)

    def test_norm_axioms_on_random_hermitian(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a, b = random_hermitian(rng, 6), random_hermitian(rng, 6)
            na, nb, nab = trace_norm(a), trace_norm(b), trace_norm(a + b)
            assert na >= 0
            assert nab <= na + nb + 1e-10

    def test_zero_iff_zero(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 4)
        assert trace_norm(a) > 1e-12
        assert trace_norm(0 * a) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            trace_norm(np.array([[0, 1], [0, 0]]))


class TestIsUnitary:
    def test_hadamard(self):
        assert is_unitary(H, 1e-12)

    def test_scaled_identity_fails(self):
        assert not is_unitary(2 * np.eye(2), 1e-12)

    def test_cnot_on_middle_and_last_qubit(self):
        # I ⊗ |0><0| ⊗ I + I ⊗ |1><1| ⊗ X on three qubits
        u6 = np.kron(np.eye(2), np.kron(np.diag([1.0, 0.0]), np.eye(2))) + np.kron(
            np.eye(2), np.kron(np.diag([0.0, 1.0]), X)
        )
        assert is_unitary(u6, 1e-12)


class TestPsdCheck:
    def test_maximally_mixed(self):
        assert psd_check(np.eye(2) / 2, 1e-10)

    def test_negative_eigenvalue(self):
        assert not psd_check(np.diag([1.0, -0.1]), 1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            psd_check(np.array([[0, 1], [0, 0]]))
