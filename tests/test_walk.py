import math
from pathlib import Path

import numpy as np
import pytest

from dense_lindblad import source_gram
from oqwalk import _kernels
from oqwalk.circuits import (
    BUILTIN_CIRCUITS,
    Circuit,
    Gate,
    basis_state,
    circuit_unitaries,
    parse_circuit,
    qft,
    toffoli13,
)
from oqwalk.config import TOL
from oqwalk.errors import CircuitError, DomainError, ShapeError
from oqwalk.walk import (
    BlockState,
    ChainParams,
    ChainWalk,
    OpenQuantumWalk,
    analytic_chain_steady,
    block_diff_norm,
    build_dqc_chain,
    classical_marginal_step,
    conditional_state,
    run_until_converged,
    step,
    two_node_gate_walk,
    validate,
)
from test_linalg import trace_norm

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
S = np.diag([1.0, 1j])

W5 = Path(__file__).parent / "golden" / "w5.circ"

#: Sources 0 and 2 unnormalized, 1 normalized, node 3 without out-edges.
GENERIC_WALK = OpenQuantumWalk(4, 2, {
    (0, 0): 0.5 * H, (0, 1): 0.7 * S, (0, 3): 0.9 * X,
    (1, 2): math.sqrt(0.3) * H, (1, 0): math.sqrt(0.7) * S,
    (2, 3): 1.2 * np.eye(2), (2, 1): 0.4 * H @ S,
})

PSI = np.array([math.cos(0.3), math.sin(0.3) * np.exp(0.4j)])


class TestChainParams:
    def test_lambda_complement(self):
        p = ChainParams(0.7)
        assert p.lam == pytest.approx(0.3)

    def test_absorbing_case_allowed(self):
        assert ChainParams(1.0).lam == 0.0

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            ChainParams(bad)


class TestValidate:
    def test_two_node_gate_walk_is_normalized(self):
        walk = two_node_gate_walk(H, ChainParams(0.7))
        assert validate(walk).max() <= 1e-10

    def test_unnormalized_source_has_the_large_residual(self):
        walk = OpenQuantumWalk(
            2, 2, {(0, 0): np.eye(2), (0, 1): np.eye(2), (1, 1): np.eye(2)}
        )
        residuals = validate(walk)
        assert residuals[0] == pytest.approx(math.sqrt(2))  # ‖2I − I‖_F
        assert residuals[1] == 0.0

    @pytest.mark.parametrize(
        "walk", [GENERIC_WALK, build_dqc_chain(qft(3), ChainParams(0.6))]
    )
    def test_matches_per_source_reference(self, walk):
        expected = []
        for j in range(walk.num_nodes):
            acc = np.zeros((walk.dim, walk.dim), dtype=complex)
            for (src, _dst), b in walk.transitions.items():
                if src == j:
                    acc += b.conj().T @ b
            expected.append(np.linalg.norm(acc - np.eye(walk.dim)))
        got = validate(walk)
        assert got.shape == (walk.num_nodes,)
        assert np.abs(got - expected).max() <= 1e-15

    @pytest.mark.parametrize("name, omega", [
        *((name, omega) for name in (*sorted(BUILTIN_CIRCUITS), "w5.circ")
          for omega in (0.5, 0.9, 1.0)),
        ("generic", None),
    ])
    def test_residuals_are_bit_equal_to_the_gram_oracle(self, name, omega):
        # the oracle sums the same products B†B in the same edge order, as
        # one step of the adjoint edges on identity blocks; the generic
        # walk's node 3 has no out-edges, so residual √d
        if name == "generic":
            walk = GENERIC_WALK
        else:
            circuit = (parse_circuit(W5.read_text(encoding="utf-8")) if name == "w5.circ"
                       else BUILTIN_CIRCUITS[name]())
            walk = build_dqc_chain(circuit, ChainParams(omega))
        gram = source_gram(walk._b_ops, walk._b_dag, walk._src, walk._dst, walk.num_nodes)
        eye = np.eye(walk.dim)
        expected = np.array([np.linalg.norm(g - eye) for g in gram])
        got = validate(walk)
        assert got.tobytes() == expected.tobytes()
        if name == "generic":
            assert got[3] == math.sqrt(2)

    @pytest.mark.parametrize("omega", [0.5, 0.8])
    def test_dqc_chain_is_normalized(self, omega):
        walk = build_dqc_chain(toffoli13(), ChainParams(omega))
        assert validate(walk).max() <= 1e-12

    def test_dilated_operators_resolve_identity(self):
        # sum over all edges of M†M with M = B ⊗ |i><j| equals the identity
        walk = two_node_gate_walk(S, ChainParams(0.4))
        total = np.zeros((4, 4), dtype=complex)
        for (j, i), b in walk.transitions.items():
            ket_bra = np.zeros((2, 2))
            ket_bra[i, j] = 1.0
            m = np.kron(b, ket_bra)
            total += m.conj().T @ m
        assert np.allclose(total, np.eye(4), atol=1e-12)


class TestStep:
    def test_first_step_from_node_zero(self):
        params = ChainParams(0.7)
        walk = two_node_gate_walk(H, params)
        state = BlockState.pure(2, 2, 0, PSI)
        rho0 = np.outer(PSI, PSI.conj())
        out = step(walk, state)
        assert np.allclose(out.blocks[0], params.lam * rho0, atol=1e-14)
        assert np.allclose(
            out.blocks[1], params.omega * H @ rho0 @ H.conj().T, atol=1e-14
        )

    def test_identity_walk_fixed_point(self):
        walk = OpenQuantumWalk(1, 2, {(0, 0): np.eye(2)})
        state = BlockState.pure(1, 2, 0, PSI)
        out = step(walk, state)
        assert np.allclose(out.blocks, state.blocks, atol=1e-15)

    def test_shape_mismatch(self):
        walk = two_node_gate_walk(H, ChainParams(0.5))
        with pytest.raises(ShapeError):
            step(walk, BlockState.pure(3, 2, 0, PSI))

    def test_matches_classical_marginals(self):
        params = ChainParams(0.5)
        circuit = toffoli13()
        walk = build_dqc_chain(circuit, params)
        state = BlockState.pure(walk.num_nodes, walk.dim, 0, basis_state(3, "110"))
        p = state.probabilities()
        for _ in range(100):
            state = step(walk, state)
            p = classical_marginal_step(params, circuit.depth, p)
            assert np.abs(state.probabilities() - p).max() < 1e-12

    def test_trace_and_positivity_preserved(self):
        walk = build_dqc_chain(toffoli13(), ChainParams(0.8))
        state = BlockState.pure(walk.num_nodes, walk.dim, 0, basis_state(3, "110"))
        for _ in range(100):
            state = step(walk, state)
        assert state.total_trace() == pytest.approx(1.0, abs=1e-10)
        hermitized = 0.5 * (state.blocks + state.blocks.conj().transpose(0, 2, 1))
        assert np.linalg.eigvalsh(hermitized).min() >= -1e-10


class TestTwoNodeRecursion:
    def test_matches_hand_coded_recursion_exactly(self):
        walk = two_node_gate_walk(H, ChainParams(0.7))
        b00 = walk.transitions[(0, 0)]
        b01 = walk.transitions[(0, 1)]
        b10 = walk.transitions[(1, 0)]
        b11 = walk.transitions[(1, 1)]
        state = BlockState.pure(2, 2, 0, PSI)
        r0, r1 = state.blocks[0].copy(), state.blocks[1].copy()
        for _ in range(50):
            state = step(walk, state)
            r0, r1 = (
                b00 @ r0 @ b00.conj().T + b10 @ r1 @ b10.conj().T,
                b01 @ r0 @ b01.conj().T + b11 @ r1 @ b11.conj().T,
            )
            assert np.array_equal(state.blocks[0], r0)
            assert np.array_equal(state.blocks[1], r1)


class TestBuildDqcChain:
    def test_single_slice_equals_two_node_walk(self):
        circuit = Circuit(1, ((Gate("H", (1,)),),))
        params = ChainParams(0.6)
        chain = build_dqc_chain(circuit, params)
        gate_walk = two_node_gate_walk(H, params)
        assert set(chain.transitions) == set(gate_walk.transitions)
        for key in chain.transitions:
            assert np.allclose(
                chain.transitions[key], gate_walk.transitions[key], atol=1e-15
            )

    def test_toffoli_chain_has_14_nodes(self):
        chain = build_dqc_chain(toffoli13(), ChainParams(0.9))
        assert chain.num_nodes == 14

    def test_interior_normalization_exact(self):
        params = ChainParams(0.8)
        circuit = toffoli13()
        chain = build_dqc_chain(circuit, params)
        for t in range(1, circuit.depth):
            fwd = chain.transitions[(t, t + 1)]
            back = chain.transitions[(t, t - 1)]
            total = fwd.conj().T @ fwd + back.conj().T @ back
            assert np.allclose(total, np.eye(chain.dim), atol=1e-14)

    def test_empty_circuit_rejected(self):
        # a chain needs a slice; Circuit refuses to exist without one
        with pytest.raises(CircuitError):
            Circuit(2, ())


class TestTwoNodeGateWalk:
    def test_steady_state_closed_form(self):
        params = ChainParams(0.9)
        walk = two_node_gate_walk(H, params)
        state = BlockState.pure(2, 2, 0, PSI)
        prev = state
        for _ in range(200):
            state = step(walk, prev)
            if block_diff_norm(state, prev) < 1e-9:
                break
            prev = state
        rho0 = np.outer(PSI, PSI.conj())
        assert np.allclose(state.blocks[0], params.lam * rho0, atol=1e-9)
        assert np.allclose(
            state.blocks[1], params.omega * H @ rho0 @ H.conj().T, atol=1e-9
        )

    def test_identity_gate_balanced(self):
        walk = two_node_gate_walk(np.eye(2), ChainParams(0.5))
        report = run_until_converged(
            walk, BlockState.pure(2, 2, 0, PSI), tol=1e-10, max_steps=100
        )
        assert np.allclose(report.history[-1], [0.5, 0.5], atol=1e-12)
        final = report.final_state
        assert np.allclose(final.blocks[0], final.blocks[1], atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(DomainError):
            two_node_gate_walk(np.eye(2) * 2, ChainParams(0.5))

    def test_unitarity_threshold_is_tol_unitary(self):
        # s·I on two dimensions has ‖(sI)†(sI) − I‖_F = √2·(s² − 1)
        inside, outside = (
            np.sqrt(1 + f * TOL.unitary / np.sqrt(2)) * np.eye(2) for f in (0.5, 2.0)
        )
        two_node_gate_walk(inside, ChainParams(0.5))
        with pytest.raises(DomainError, match="coin matrix must be unitary within 1e-10$"):
            two_node_gate_walk(outside, ChainParams(0.5))


class TestClassicalMarginal:
    def test_single_hop(self):
        out = classical_marginal_step(ChainParams(0.5), 1, [1.0, 0.0])
        assert np.allclose(out, [0.5, 0.5])

    def test_preserves_stationary_vector(self):
        params = ChainParams(0.7)
        pi = analytic_chain_steady(params, 9)
        out = classical_marginal_step(params, 9, pi)
        assert np.abs(out - pi).max() < 1e-12

    def test_conserves_probability(self):
        rng = np.random.default_rng(2)
        p = rng.random(8)
        p /= p.sum()
        out = classical_marginal_step(ChainParams(0.63), 7, p)
        assert out.sum() == pytest.approx(1.0, abs=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            classical_marginal_step(ChainParams(0.5), 3, [0.5, 0.5])


class TestAnalyticSteady:
    def test_uniform_at_balanced_weight(self):
        p = analytic_chain_steady(ChainParams(0.5), 13)
        assert np.allclose(p, np.full(14, 1.0 / 14.0), atol=1e-15)

    def test_uniform_qft3_length(self):
        p = analytic_chain_steady(ChainParams(0.5), 9)
        assert p[-1] == pytest.approx(0.1, abs=1e-15)

    def test_geometric_formula(self):
        # r = 9 at omega = 0.9: p_13 = r^13 (r-1) / (r^14 - 1)
        p = analytic_chain_steady(ChainParams(0.9), 13)
        expected = 9.0**13 * 8.0 / (9.0**14 - 1.0)
        assert p[-1] == pytest.approx(expected, rel=1e-12)

    def test_matches_iterated_chain(self):
        for omega in (0.55, 0.7, 0.9):
            params = ChainParams(omega)
            p = np.zeros(14)
            p[0] = 1.0
            for _ in range(20000):
                nxt = classical_marginal_step(params, 13, p)
                if np.abs(nxt - p).sum() < 1e-15:
                    p = nxt
                    break
                p = nxt
            assert np.abs(p - analytic_chain_steady(params, 13)).max() < 1e-12

    def test_no_overflow_for_long_biased_chain(self):
        p = analytic_chain_steady(ChainParams(0.999), 500)
        assert np.isfinite(p).all()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_absorbing_weight(self):
        with pytest.raises(DomainError):
            analytic_chain_steady(ChainParams(1.0), 13)


class TestRunUntilConverged:
    def test_toffoli_uniform_detection(self):
        walk = build_dqc_chain(toffoli13(), ChainParams(0.5))
        init = BlockState.pure(walk.num_nodes, walk.dim, 0, basis_state(3, "110"))
        report = run_until_converged(walk, init, tol=1e-7)
        assert report.converged
        assert report.final_detection == pytest.approx(1.0 / 14.0, abs=1e-6)

    def test_biased_matches_analytic_and_is_faster(self):
        circuit = toffoli13()
        reports = {}
        for omega in (0.5, 0.9):
            walk = build_dqc_chain(circuit, ChainParams(omega))
            init = BlockState.pure(walk.num_nodes, walk.dim, 0, basis_state(3, "110"))
            reports[omega] = run_until_converged(walk, init, tol=1e-7)
        expected = analytic_chain_steady(ChainParams(0.9), 13)[-1]
        assert reports[0.9].final_detection == pytest.approx(expected, abs=1e-6)
        assert reports[0.9].steps < reports[0.5].steps

    def test_trivial_walk_converges_in_one_step(self):
        walk = OpenQuantumWalk(1, 2, {(0, 0): np.eye(2)})
        report = run_until_converged(walk, BlockState.pure(1, 2, 0, PSI), tol=1e-9)
        assert report.converged
        assert report.steps == 1

    def test_max_steps_exhaustion_reported(self):
        walk = build_dqc_chain(toffoli13(), ChainParams(0.5))
        init = BlockState.pure(walk.num_nodes, walk.dim, 0, basis_state(3, "110"))
        report = run_until_converged(walk, init, tol=1e-12, max_steps=5)
        assert not report.converged
        assert report.steps == 5

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_rejects_non_finite_tol(self, tol):
        walk = OpenQuantumWalk(1, 2, {(0, 0): np.eye(2)})
        with pytest.raises(DomainError, match="tol"):
            run_until_converged(walk, BlockState.pure(1, 2, 0, PSI), tol=tol)

    def test_history_rows_are_distributions(self):
        walk = build_dqc_chain(qft(3), ChainParams(0.7))
        init = BlockState.pure(walk.num_nodes, walk.dim, 0, basis_state(3, "000"))
        report = run_until_converged(walk, init, tol=1e-7)
        sums = report.history.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-10

    def test_forward_sweep_at_unit_omega(self):
        circuit = qft(3)
        walk = build_dqc_chain(circuit, ChainParams(1.0))
        init = BlockState.pure(walk.num_nodes, walk.dim, 0, basis_state(3, "000"))
        report = run_until_converged(walk, init, tol=1e-9)
        t = circuit.depth
        assert report.history[t][t] == pytest.approx(1.0, abs=1e-12)
        assert report.history[t - 1][t] == 0.0

    def test_steady_state_factorization(self):
        # every node's normalized block is the partial computation on psi0
        circuit = toffoli13()
        walk = build_dqc_chain(circuit, ChainParams(0.8))
        psi0 = basis_state(3, "110")
        init = BlockState.pure(walk.num_nodes, walk.dim, 0, psi0)
        report = run_until_converged(walk, init, tol=1e-9)
        unitaries = circuit_unitaries(circuit)
        psi = psi0
        marginals = report.history[-1]
        expected = analytic_chain_steady(ChainParams(0.8), circuit.depth)
        assert np.abs(marginals - expected).max() < 1e-7
        for node in range(walk.num_nodes):
            rho = conditional_state(report.final_state, node)
            fidelity = (psi.conj() @ rho @ psi).real
            assert fidelity >= 1 - 1e-8
            if node < circuit.depth:
                psi = unitaries[node] @ psi

    @pytest.mark.parametrize(
        "node, value, match",
        [(2, [[np.nan, 0.0], [0.0, 0.25]], "block 2 contains NaN or Inf entries"),
         (1, [[0.25, np.inf], [0.0, 0.0]], "block 1 contains NaN or Inf entries"),
         (1, [[0.25, 0.1], [0.0, 0.0]], "block 1 is not Hermitian"),
         (2, [[0.125, 1e-9j], [1e-9j, 0.125]], "block 2 is not Hermitian"),
         (1, [[0.35, 0.0], [0.0, -0.1]], "block 1 is not positive semidefinite"),
         (2, [[0.125, 0.5], [0.5, 0.125]], "block 2 is not positive semidefinite")],
    )
    def test_rejects_a_bad_initial_state_and_names_the_first_bad_block(
        self, node, value, match
    ):
        # every block has trace 1/4; node 3 repeats the fault, so the
        # message must name the first one
        walk = OpenQuantumWalk(4, 2, {(n, n): np.eye(2) for n in range(4)})
        blocks = np.broadcast_to(np.eye(2) / 8, (4, 2, 2)).astype(complex)
        blocks[node] = blocks[3] = value
        with pytest.raises(DomainError, match=match):
            run_until_converged(walk, BlockState(blocks))

    @pytest.mark.parametrize("trace", [0.0, 0.9, 1 + 2e-10, 1e300])
    def test_rejects_an_initial_state_of_non_unit_trace(self, trace):
        walk = OpenQuantumWalk(2, 2, {(0, 0): np.eye(2), (1, 1): np.eye(2)})
        blocks = np.zeros((2, 2, 2), dtype=complex)
        blocks[1, 0, 0] = trace
        with pytest.raises(DomainError, match="total trace .* is not 1"):
            run_until_converged(walk, BlockState(blocks))

    def test_accepts_skew_within_tolerance_on_every_block(self):
        # each block's skew is below 1e-10 but the stack's is above it, so
        # the per-block search runs and finds nothing
        walk = OpenQuantumWalk(4, 2, {(n, n): np.eye(2) for n in range(4)})
        blocks = np.broadcast_to(np.eye(2) / 8, (4, 2, 2)).astype(complex)
        blocks[:, 0, 1] += 0.6e-10
        assert run_until_converged(walk, BlockState(blocks)).converged


class TestEdgeTable:
    """The constructor's checks, made on the edges in key order."""

    def test_keeps_the_key_order(self):
        table = {(2, 0): np.eye(2), (0, 1): 2 * np.eye(2), (1, 0): 3 * np.eye(2)}
        walk = OpenQuantumWalk(3, 2, table)
        assert walk._src.tolist() == [0, 1, 2] and walk._dst.tolist() == [1, 0, 0]
        assert walk._b_ops[:, 0, 0].tolist() == [2, 3, 1]
        assert not walk._b_ops.flags.writeable
        assert np.array_equal(walk._b_dag, walk._b_ops.conj().transpose(0, 2, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_names_the_first_non_finite_coin(self, bad):
        coin = np.eye(2, dtype=complex)
        coin[1, 0] = bad
        table = {(0, 0): np.eye(2), (0, 1): coin, (1, 1): np.eye(2), (1, 0): coin}
        with pytest.raises(DomainError, match=r"coin for edge \(0, 1\) contains NaN or Inf"):
            OpenQuantumWalk(2, 2, table)

    @pytest.mark.parametrize("coin", [np.eye(3), np.eye(2)[0], np.ones((2, 2, 1)), 1.0])
    def test_names_the_first_coin_of_the_wrong_shape(self, coin):
        table = {(0, 0): np.eye(2), (1, 0): coin, (1, 1): np.eye(3)}
        with pytest.raises(ShapeError, match=r"coin for edge \(1, 0\) has shape"):
            OpenQuantumWalk(2, 2, table)

    def test_names_the_first_edge_out_of_range(self):
        table = {(0, 0): np.eye(2), (0, 2): np.eye(2), (3, 0): np.eye(2)}
        with pytest.raises(DomainError, match=r"edge \(0, 2\) out of range"):
            OpenQuantumWalk(2, 2, table)

    @pytest.mark.parametrize("num_nodes, dim", [(0, 2), (2, 0)])
    def test_needs_a_node_and_a_dimension(self, num_nodes, dim):
        with pytest.raises(DomainError, match="num_nodes and dim must be >= 1"):
            OpenQuantumWalk(num_nodes, dim, {})


def keyed_chain(unitaries, params):
    """The chain walk built from its dict of per-edge coins, keyed
    (source, target), which ``OpenQuantumWalk`` sorts into key order."""
    big_t, dim = len(unitaries), unitaries[0].shape[0]
    sqrt_w, sqrt_l = math.sqrt(params.omega), math.sqrt(params.lam)
    eye = np.eye(dim, dtype=np.complex128)
    table = {(0, 0): sqrt_l * eye, (big_t, big_t): sqrt_w * eye}
    for t, u in enumerate(unitaries, start=1):
        table[(t - 1, t)] = sqrt_w * u
        table[(t, t - 1)] = sqrt_l * u.conj().T
    return OpenQuantumWalk(big_t + 1, dim, table)


class TestChainTable:
    """``ChainWalk`` writes the table ``OpenQuantumWalk`` builds from the dict."""

    @pytest.mark.parametrize("omega", [0.5, 0.9, 1.0])
    @pytest.mark.parametrize("big_t", [1, 2, 13])
    @pytest.mark.parametrize("coins", ["toffoli", "populations"])
    def test_equals_the_table_of_the_keyed_coins(self, coins, big_t, omega):
        if coins == "toffoli":
            unitaries = circuit_unitaries(toffoli13())[:big_t]
        else:
            unitaries = [np.ones((1, 1))] * big_t
        params = ChainParams(omega)
        chain, keyed = ChainWalk(unitaries, params), keyed_chain(unitaries, params)
        assert (chain.num_nodes, chain.dim) == (keyed.num_nodes, keyed.dim)
        for name in ("_src", "_dst", "_b_ops", "_b_dag"):
            got, expected = getattr(chain, name), getattr(keyed, name)
            assert (got.dtype, got.shape) == (expected.dtype, expected.shape), name
            assert got.tobytes() == expected.tobytes(), name
        assert not chain._b_ops.flags.writeable
        dagger = np.ascontiguousarray(chain._b_ops.conj().transpose(0, 2, 1))
        assert chain._b_dag.tobytes() == dagger.tobytes()
        if omega == 1.0:  # λ = 0: every backward coin is zero
            assert not chain._b_ops[0::2].any()

    @pytest.mark.parametrize(
        "unitaries",
        [[np.eye(2), np.eye(4)], [np.eye(4), H], [np.ones((2, 3))], [np.ones(2)]],
        ids=["mismatched", "mismatched-later", "non-square", "vector"],
    )
    def test_rejects_unitaries_of_the_wrong_shape(self, unitaries):
        with pytest.raises(ShapeError):
            ChainWalk(unitaries, ChainParams(0.7))

    @pytest.mark.parametrize("omega", [0.7, 1.0])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_names_the_first_edge_of_a_non_finite_unitary(self, bad, omega):
        u = H.copy()
        u[1, 0] = bad
        with pytest.raises(DomainError, match=r"coin for edge \(1, 2\) contains NaN or Inf"):
            ChainWalk([H, u, u], ChainParams(omega))


class TestConditionalState:
    def test_two_node_output_state(self):
        params = ChainParams(0.7)
        walk = two_node_gate_walk(H, params)
        report = run_until_converged(
            walk, BlockState.pure(2, 2, 0, PSI), tol=1e-10
        )
        rho = conditional_state(report.final_state, 1)
        expected = H @ np.outer(PSI, PSI.conj()) @ H.conj().T
        assert np.allclose(rho, expected, atol=1e-12)

    def test_toffoli_flips_target(self):
        walk = build_dqc_chain(toffoli13(), ChainParams(0.8))
        init = BlockState.pure(walk.num_nodes, walk.dim, 0, basis_state(3, "110"))
        report = run_until_converged(walk, init, tol=1e-9)
        rho = conditional_state(report.final_state, 13)
        target = basis_state(3, "111")
        assert (target.conj() @ rho @ target).real >= 1 - 1e-10

    def test_pure_block_is_idempotent(self):
        state = BlockState.pure(2, 2, 0, PSI)
        rho = conditional_state(state, 0)
        assert np.abs(rho @ rho - rho).max() < 1e-12

    def test_zero_probability_node(self):
        state = BlockState.pure(2, 2, 0, PSI)
        with pytest.raises(DomainError):
            conditional_state(state, 1)


class TestBlockState:
    def test_pure_constructor_normalizes(self):
        state = BlockState.pure(3, 2, 1, [3.0, 4.0])
        assert state.total_trace() == pytest.approx(1.0, abs=1e-15)
        assert state.probabilities()[1] == pytest.approx(1.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            BlockState(np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            BlockState.pure(2, 2, 0, [1.0, 0.0, 0.0])

    def test_rejects_zero_vector(self):
        with pytest.raises(DomainError):
            BlockState.pure(2, 2, 0, [0.0, 0.0])

    def test_trace_distance_metric(self):
        a = BlockState.pure(2, 2, 0, [1.0, 0.0])
        b = BlockState.pure(2, 2, 1, [1.0, 0.0])
        # orthogonal node labels: blocks differ by two unit-trace projectors
        assert block_diff_norm(a, b) == pytest.approx(2.0, abs=1e-12)
        assert trace_norm(a.blocks[0] - b.blocks[0]) == pytest.approx(1.0)


def reference_run(walk, init, tol, max_steps=100_000):
    """The convergence loop with the trace-norm distance computed every step."""
    history = [init.probabilities()]
    prev = init
    for n in range(1, max_steps + 1):
        cur = step(walk, prev)
        history.append(cur.probabilities())
        done = block_diff_norm(cur, prev) < tol
        prev = cur
        if done:
            return n, True, np.array(history), prev
    return max_steps, False, np.array(history), prev


def settled_population_walk(rng, num_nodes=3, dim=4, angle=0.4):
    """A complete-graph walk with coins √q_i·U_{j→i}: every source hops to i
    with probability q_i, so the node populations settle after one step,
    while the random unitaries near I go on mixing the internal states."""
    q = rng.dirichlet(np.ones(num_nodes))
    table = {}
    for j in range(num_nodes):
        for i in range(num_nodes):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            lam, vec = np.linalg.eigh(a + a.conj().T)
            u = (vec * np.exp(1j * angle * lam)) @ vec.conj().T
            table[(j, i)] = math.sqrt(q[i]) * u
    return OpenQuantumWalk(num_nodes, dim, table)


def random_mixed_state(rng, num_nodes, dim):
    a = rng.normal(size=(num_nodes, dim, dim)) + 1j * rng.normal(size=(num_nodes, dim, dim))
    blocks = a @ a.conj().transpose(0, 2, 1)
    return BlockState(blocks / np.einsum("nii->", blocks).real)


class TestTraceNormSkip:
    """run_until_converged computes the trace-norm distance only where the
    population change leaves convergence in doubt; the result must be that
    of computing it every step, bit for bit."""

    def run_counted(self, monkeypatch, walk, init, tol):
        calls = []
        kernel = _kernels.stacked_trace_norm

        def counted(diff):
            calls.append(1)
            return kernel(diff)

        with monkeypatch.context() as m:
            m.setattr(_kernels, "stacked_trace_norm", counted)
            report = run_until_converged(walk, init, tol=tol)
        return report, len(calls)

    def assert_same(self, report, walk, init, tol):
        steps, converged, history, final = reference_run(walk, init, tol)
        assert (report.steps, report.converged) == (steps, converged)
        assert np.array_equal(report.history, history)
        assert np.array_equal(report.final_state.blocks, final.blocks)

    @pytest.mark.parametrize("tol", [1e-5, 1e-7, 1e-12])
    @pytest.mark.parametrize("omega", [0.5, 0.8, 0.95])
    @pytest.mark.parametrize("make, bits", [(toffoli13, "110"), (lambda: qft(4), "0000")])
    def test_chain_matches_reference_and_skips_eigendecompositions(
        self, monkeypatch, make, bits, omega, tol
    ):
        circuit = make()
        walk = build_dqc_chain(circuit, ChainParams(omega))
        init = BlockState.pure(
            walk.num_nodes, walk.dim, 0, basis_state(circuit.num_qubits, bits)
        )
        report, calls = self.run_counted(monkeypatch, walk, init, tol)
        assert report.converged
        # block t is p_t·V_t ρ0 V_t†, so the population change is the
        # trace-norm distance and only the converging step needs it; near
        # the rounding floor, noise in the coherences makes a few more
        # steps doubtful (up to 13 of 1526 for qft4 at ω = 0.5, tol 1e-12)
        if tol >= 1e-7:
            assert calls == 1
        else:
            assert calls < report.steps / 4
        self.assert_same(report, walk, init, tol)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_settled_populations_match_reference(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        walk = settled_population_walk(rng)
        init = random_mixed_state(rng, walk.num_nodes, walk.dim)
        report, calls = self.run_counted(monkeypatch, walk, init, 1e-12)
        assert report.converged
        # every step after the first leaves convergence in doubt
        assert calls >= report.steps - 1 > 10
        self.assert_same(report, walk, init, 1e-12)
