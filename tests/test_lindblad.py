from collections import defaultdict

import numpy as np
import pytest

from dense_lindblad import dense_chain_jumps, dense_rhs, embed_blocks, node_block
from oqwalk.circuits import Circuit, Gate, basis_state, qft, toffoli13
from oqwalk.errors import CircuitError, DomainError, ShapeError
from oqwalk.lindblad import (
    MAX_RK4_STEPS,
    LindbladModel,
    build_dqc_lindblad,
    integrate,
    lindblad_rhs,
    node_marginals,
)
from oqwalk.walk import BlockState

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)


def single_gate_circuit():
    return Circuit(1, ((Gate("H", (1,)),),), name="h1")


def chain_mixture(unitaries, psi0, num_nodes):
    """Uniform mixture of partial computations, one block per register."""
    blocks = np.zeros((num_nodes, len(psi0), len(psi0)), dtype=complex)
    psi = psi0
    for t in range(num_nodes):
        blocks[t] = np.outer(psi, psi.conj()) / num_nodes
        if t < len(unitaries):
            psi = unitaries[t] @ psi
    return blocks


def start_state(model, bits, node=0):
    psi = basis_state(len(bits), bits)
    return BlockState.pure(model.num_nodes, model.dim, node, psi).blocks


def edge_table(model):
    """(source, target) -> the coins of that pair's edges, in emission order."""
    table = defaultdict(list)
    for s, d, op in zip(model._src.tolist(), model._dst.tolist(), model._b_ops):
        table[s, d].append(op)
    return table


def random_block_state(rng, num_nodes, dim):
    a = rng.normal(size=(num_nodes, dim, dim)) + 1j * rng.normal(size=(num_nodes, dim, dim))
    blocks = a @ a.conj().transpose(0, 2, 1)
    return blocks / np.einsum("nii->", blocks).real


class TestBuildModel:
    def test_single_gate_jump_form(self):
        model = build_dqc_lindblad(single_gate_circuit())
        assert (model.num_nodes, model.dim) == (2, 2)
        table = edge_table(model)
        assert sorted(table) == [(0, 1), (1, 0)]
        assert np.allclose(table[0, 1], [H], atol=1e-15)
        assert np.allclose(table[1, 0], [H.conj().T], atol=1e-15)

    def test_one_jump_per_slice(self):
        # each slice's jump is one forward and one backward edge
        model = build_dqc_lindblad(toffoli13())
        assert (model.num_nodes, model.dim) == (14, 8)
        pairs = list(zip(model._src.tolist(), model._dst.tolist()))
        assert sorted(pairs) == sorted(
            p for t in range(1, 14) for p in ((t - 1, t), (t, t - 1))
        )

    def test_register_jumps_are_hermitian(self):
        # the backward coin is the adjoint of the forward one, so each jump
        # U ⊗ |t⟩⟨t−1| + U† ⊗ |t−1⟩⟨t| is Hermitian
        table = edge_table(build_dqc_lindblad(toffoli13()))
        for t in range(1, 14):
            assert np.array_equal(table[t, t - 1][0], table[t - 1, t][0].conj().T)

    def test_reset_jumps_added_per_qubit(self):
        base = build_dqc_lindblad(toffoli13())
        with_reset = build_dqc_lindblad(toffoli13(), include_reset=True)
        assert len(with_reset._src) == len(base._src) + 3
        assert (0, 0) not in edge_table(base)
        eye = np.eye(2)
        lowers = [np.kron(LOWER, np.eye(4)), np.kron(eye, np.kron(LOWER, eye)),
                  np.kron(np.eye(4), LOWER)]
        assert np.array_equal(edge_table(with_reset)[0, 0], lowers)

    def test_reset_jumps_act_only_in_register_zero(self):
        model = build_dqc_lindblad(single_gate_circuit(), include_reset=True)
        table = edge_table(model)
        assert sorted(table) == [(0, 0), (0, 1), (1, 0)]
        assert np.array_equal(table[0, 0], [LOWER])

    def test_qft4_builds_without_dimension_cap(self):
        # 17 registers of 16-dimensional blocks, past the old dense cap of 256
        circuit = qft(4)
        model = build_dqc_lindblad(circuit, include_reset=True)
        assert (model.num_nodes, model.dim) == (circuit.depth + 1, 16)
        assert len(model._src) == 2 * circuit.depth + 4
        assert model._g.shape == (circuit.depth + 1, 16, 16)

    def test_empty_circuit_rejected(self):
        # a model needs a slice; Circuit refuses to exist without one
        with pytest.raises(CircuitError):
            Circuit(1, ())

    def test_model_shape_validation(self):
        with pytest.raises(ShapeError):
            LindbladModel(1, 2, [(0, 0, np.eye(2)), (0, 0, np.eye(3))])
        with pytest.raises(DomainError):
            LindbladModel(2, 2, [(0, 2, np.eye(2))])
        with pytest.raises(DomainError):
            LindbladModel(0, 2, [])


class TestDenseOracle:
    """The block model against the kron-assembled dense master equation."""

    @pytest.mark.parametrize("include_reset", [False, True])
    def test_block_rhs_matches_dense_rhs(self, include_reset):
        rng = np.random.default_rng(11)
        circuit = toffoli13()
        model = build_dqc_lindblad(circuit, include_reset=include_reset)
        jumps = dense_chain_jumps(circuit, include_reset)
        for _ in range(3):
            blocks = random_block_state(rng, model.num_nodes, model.dim)
            got = embed_blocks(lindblad_rhs(model, blocks))
            expected = dense_rhs(jumps, embed_blocks(blocks))
            assert np.abs(got - expected).max() < 1e-12

    @pytest.mark.parametrize("include_reset", [False, True])
    def test_dense_rhs_keeps_inter_node_blocks_zero(self, include_reset):
        rng = np.random.default_rng(12)
        circuit = toffoli13()
        num_nodes = circuit.depth + 1
        blocks = random_block_state(rng, num_nodes, 8)
        out = dense_rhs(dense_chain_jumps(circuit, include_reset), embed_blocks(blocks))
        for i in range(num_nodes):
            for j in range(num_nodes):
                if i != j:
                    assert not node_block(out, i, j, num_nodes).any(), (i, j)


class TestRhs:
    def test_stationary_mixture_annihilated(self):
        circuit = single_gate_circuit()
        model = build_dqc_lindblad(circuit)
        psi0 = basis_state(1, "0")
        rho_star = chain_mixture([H], psi0, 2)
        assert np.linalg.norm(lindblad_rhs(model, rho_star)) < 1e-10

    def test_stationary_mixture_two_qubit_gate(self):
        circuit = Circuit(2, ((Gate("CNOT", (1, 2)),),), name="cnot1")
        model = build_dqc_lindblad(circuit)
        psi0 = basis_state(2, "10")
        cnot = np.eye(4)[:, [0, 1, 3, 2]].astype(complex)
        rho_star = chain_mixture([cnot], psi0, 2)
        assert np.linalg.norm(lindblad_rhs(model, rho_star)) < 1e-10

    def test_amplitude_damping_by_hand(self):
        # a one-node model is the dense generator of its jumps
        model = LindbladModel(1, 2, [(0, 0, LOWER)])
        rhs = lindblad_rhs(model, np.diag([0.0, 1.0])[None])
        assert np.allclose(rhs, np.diag([1.0, -1.0])[None], atol=1e-14)

    def test_traceless_and_hermitian_on_random_states(self):
        rng = np.random.default_rng(0)
        model = build_dqc_lindblad(single_gate_circuit(), include_reset=True)
        for _ in range(10):
            out = lindblad_rhs(model, random_block_state(rng, 2, 2))
            assert abs(np.einsum("nii->", out)) < 1e-10
            assert np.linalg.norm(out - out.conj().transpose(0, 2, 1)) < 1e-10

    def test_input_validation(self):
        model = build_dqc_lindblad(single_gate_circuit())
        with pytest.raises(ShapeError):
            lindblad_rhs(model, np.eye(4) / 4)  # a dense state is not blocks
        with pytest.raises(ShapeError):
            lindblad_rhs(model, np.stack([np.eye(3) / 6] * 2))
        with pytest.raises(DomainError):
            lindblad_rhs(model, np.stack([np.eye(2)] * 2))  # trace 4
        skew = np.stack([np.eye(2, dtype=complex) / 4] * 2)
        skew[0, 0, 1] = 1j
        with pytest.raises(DomainError):
            lindblad_rhs(model, skew)
        nan = np.stack([np.eye(2) / 4] * 2)
        nan[1, 0, 1] = nan[1, 1, 0] = np.nan
        with pytest.raises(DomainError):
            lindblad_rhs(model, nan)


class TestIntegrate:
    def test_single_gate_relaxes_to_uniform_registers(self):
        model = build_dqc_lindblad(single_gate_circuit())
        result = integrate(model, start_state(model, "0"), dt=0.01, stop_tol=1e-9,
                           max_time=50.0)
        assert result.stationary
        assert np.abs(node_marginals(result.rho) - 0.5).max() < 1e-6
        # full state matches the uniform mixture
        rho_star = chain_mixture([H], basis_state(1, "0"), 2)
        assert np.abs(result.rho - rho_star).max() < 1e-6

    def test_zero_jump_model_is_inert(self):
        model = LindbladModel(1, 2, [])
        rho0 = np.diag([0.25, 0.75]).astype(complex)[None]
        result = integrate(model, rho0, dt=0.1, stop_tol=1e-12, max_time=5.0)
        assert result.stationary
        assert result.steps == 0
        assert np.array_equal(result.rho, rho0)

    def test_trajectory_stays_physical(self):
        model = build_dqc_lindblad(single_gate_circuit())
        seen = []

        def observer(t, rho):
            herm = np.linalg.norm(rho - rho.conj().transpose(0, 2, 1))
            seen.append((t, np.einsum("nii->", rho).real, herm))

        integrate(
            model, start_state(model, "0"), dt=0.01, stop_tol=1e-9, max_time=30.0,
            observer=observer, observe_every=1.0,
        )
        assert len(seen) > 3
        for _t, tr, herm in seen:
            assert tr == pytest.approx(1.0, abs=1e-10)
            assert herm < 1e-10

    def test_stationary_state_independent_of_start(self):
        # empirical uniqueness: two different initial registers, same limit
        model = build_dqc_lindblad(single_gate_circuit())
        final = []
        for bits, node in [("0", 0), ("1", 1)]:
            rho0 = start_state(model, bits, node)
            res = integrate(model, rho0, dt=0.02, stop_tol=1e-10, max_time=100.0)
            final.append(node_marginals(res.rho))
        assert np.abs(final[0] - final[1]).max() < 1e-8

    def test_reset_jumps_keep_mixture_stationary_for_zero_input(self):
        circuit = single_gate_circuit()
        model = build_dqc_lindblad(circuit, include_reset=True)
        psi0 = basis_state(1, "0")
        rho_star = chain_mixture([H], psi0, 2)
        assert np.linalg.norm(lindblad_rhs(model, rho_star)) < 1e-10

    def test_rejects_bad_dt(self):
        model = LindbladModel(1, 2, [])
        with pytest.raises(DomainError):
            integrate(model, np.eye(2)[None] / 2, dt=0.0)

    def test_step_count_is_bounded(self):
        model = LindbladModel(1, 2, [])
        rho0 = np.eye(2)[None] / 2
        # exactly the bound is planned, and the inert model stops at once
        assert integrate(model, rho0, dt=1.0, max_time=MAX_RK4_STEPS).steps == 0
        with pytest.raises(DomainError, match="max_time/dt"):
            integrate(model, rho0, dt=1.0, max_time=MAX_RK4_STEPS + 0.5)

    def test_matches_balanced_walk_marginals(self):
        # continuous-time stationary registers are uniform, exactly what the
        # discrete walk gives at omega = 1/2: the two models tie together
        from oqwalk.walk import ChainParams, run_until_converged, two_node_gate_walk

        model = build_dqc_lindblad(single_gate_circuit())
        rho0 = start_state(model, "0")
        res = integrate(model, rho0, dt=0.01, stop_tol=1e-9, max_time=50.0)
        continuous = node_marginals(res.rho)

        walk = two_node_gate_walk(H, ChainParams(0.5))
        report = run_until_converged(walk, BlockState(rho0), tol=1e-10)
        assert np.abs(continuous - report.history[-1]).max() < 1e-6


class TestNodeMarginals:
    def test_traces_of_node_blocks(self):
        # population on internal basis 1 at node 2 of three nodes
        blocks = np.zeros((3, 2, 2), dtype=complex)
        blocks[2, 1, 1] = 1.0
        assert np.allclose(node_marginals(blocks), [0.0, 0.0, 1.0])

    def test_shape_guard(self):
        with pytest.raises(ShapeError):
            node_marginals(np.eye(6))
