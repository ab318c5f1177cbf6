import math
import tracemalloc
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from dense_chain import (
    chain_table,
    conditional_state,
    dense_chain,
    keyed_chain,
    seeded_circuit,
)
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
    run_until_converged,
    step,
    validate,
)
from test_linalg import trace_norm

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.diag([1.0, 1j])

W5 = Path(__file__).parent / "golden" / "w5.circ"

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
    def test_two_node_chain_is_normalized(self):
        assert validate(ChainWalk([H], ChainParams(0.7))).max() <= 1e-10

    def test_non_unitary_slice_has_the_large_residual(self):
        # at ω = ½, node 0 sums λ·I + ω·4I and node 1 sums λ·4I + ω·I, both
        # 2.5·I; node 2 sums λ·I + ω·I = I
        residuals = validate(ChainWalk([2 * np.eye(2), np.eye(2)], ChainParams(0.5)))
        assert residuals == pytest.approx([1.5 * math.sqrt(2)] * 2 + [0.0], abs=1e-15)

    def test_matches_per_source_reference(self):
        params = ChainParams(0.6)
        table = chain_table(circuit_unitaries(qft(3)), params)
        num_nodes, dim = qft(3).depth + 1, 8
        expected = []
        for j in range(num_nodes):
            acc = np.zeros((dim, dim), dtype=complex)
            for (src, _dst), b in sorted(table.items()):
                if src == j:
                    acc += b.conj().T @ b
            expected.append(np.linalg.norm(acc - np.eye(dim)))
        got = validate(build_dqc_chain(qft(3), params))
        assert got.shape == (num_nodes,)
        assert np.abs(got - expected).max() <= 1e-15

    @pytest.mark.parametrize("name, omega", [
        *((name, omega)
          for name in (*sorted(BUILTIN_CIRCUITS), "w5.circ", "4x24", "4x48", "5x24", "5x36")
          for omega in (0.5, 0.9, 1.0)),
        ("8x24", 0.7),
    ])
    def test_residuals_are_bit_equal_to_the_gram_oracle(self, name, omega):
        # node t's two coins give the products B†B that the dense chain's
        # oracle sums in edge order, as one step of the adjoint edges on
        # identity blocks; "QxT" is a seeded random circuit of Q qubits and
        # T slices
        if name == "w5.circ":
            circuit = parse_circuit(W5.read_text(encoding="utf-8"))
        elif name in BUILTIN_CIRCUITS:
            circuit = BUILTIN_CIRCUITS[name]()
        else:
            qubits, depth = map(int, name.split("x"))
            circuit = seeded_circuit(qubits * depth, qubits, depth)
        params = ChainParams(omega)
        walk = dense_chain(circuit, params)
        gram = source_gram(walk._b_ops, walk._b_dag, walk._src, walk._dst, walk.num_nodes)
        expected = np.array([np.linalg.norm(g - np.eye(walk.dim)) for g in gram])
        got = validate(build_dqc_chain(circuit, params))
        assert got.tobytes() == expected.tobytes()

    def test_holds_no_table_of_coins(self):
        # 8 qubits × 24 slices, d = 256: one d×d matrix is 1 MiB, and the
        # compiled slices (24 MiB) are made before tracing.  A table of
        # 2T + 2 = 50 coins and its daggers takes 100 MiB; building the
        # chain may allocate at most 1 MiB, and validate's peak, a few d×d
        # products of one node at a time, at most 12 MiB.
        circuit = seeded_circuit(192, 8, 24)
        circuit_unitaries(circuit)
        mib = 2**20
        tracemalloc.start()
        try:
            chain = build_dqc_chain(circuit, ChainParams(0.7))
            _, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            residuals = validate(chain)
            _, validate_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert residuals.max() <= 1e-12
        assert build_peak <= 1 * mib, build_peak / mib
        assert validate_peak <= 12 * mib, validate_peak / mib

    @pytest.mark.parametrize("omega", [0.5, 0.8])
    def test_dqc_chain_is_normalized(self, omega):
        walk = build_dqc_chain(toffoli13(), ChainParams(omega))
        assert validate(walk).max() <= 1e-12

    def test_dilated_operators_resolve_identity(self):
        # sum over all edges of M†M with M = B ⊗ |i><j| equals the identity
        total = np.zeros((4, 4), dtype=complex)
        for (j, i), b in chain_table([S], ChainParams(0.4)).items():
            ket_bra = np.zeros((2, 2))
            ket_bra[i, j] = 1.0
            m = np.kron(b, ket_bra)
            total += m.conj().T @ m
        assert np.allclose(total, np.eye(4), atol=1e-12)


class TestStep:
    def test_first_step_from_node_zero(self):
        params = ChainParams(0.7)
        walk = keyed_chain([H], params)
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
        walk = keyed_chain([H], ChainParams(0.5))
        with pytest.raises(ShapeError):
            step(walk, BlockState.pure(3, 2, 0, PSI))

    def test_matches_classical_marginals(self):
        params = ChainParams(0.5)
        circuit = toffoli13()
        walk = dense_chain(circuit, params)
        state = BlockState.pure(walk.num_nodes, walk.dim, 0, basis_state(3, "110"))
        p = state.probabilities()
        for _ in range(100):
            state = step(walk, state)
            p = classical_marginal_step(params, circuit.depth, p)
            assert np.abs(state.probabilities() - p).max() < 1e-12

    def test_trace_and_positivity_preserved(self):
        walk = dense_chain(toffoli13(), ChainParams(0.8))
        state = BlockState.pure(walk.num_nodes, walk.dim, 0, basis_state(3, "110"))
        for _ in range(100):
            state = step(walk, state)
        assert state.total_trace() == pytest.approx(1.0, abs=1e-10)
        hermitized = 0.5 * (state.blocks + state.blocks.conj().transpose(0, 2, 1))
        assert np.linalg.eigvalsh(hermitized).min() >= -1e-10


class TestTwoNodeRecursion:
    def test_matches_hand_coded_recursion_exactly(self):
        table = chain_table([H], ChainParams(0.7))
        walk = OpenQuantumWalk(2, 2, table)
        b00, b01, b10, b11 = (table[k] for k in ((0, 0), (0, 1), (1, 0), (1, 1)))
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
    def test_single_slice_chain_is_its_gate(self):
        circuit = Circuit(1, ((Gate("H", (1,)),),))
        params = ChainParams(0.6)
        chain = build_dqc_chain(circuit, params)
        assert chain.params is params and (chain.num_nodes, chain.dim) == (2, 2)
        (u,) = chain.unitaries
        assert u.tobytes() == H.tobytes()

    def test_toffoli_chain_has_14_nodes(self):
        chain = build_dqc_chain(toffoli13(), ChainParams(0.9))
        assert chain.num_nodes == 14

    def test_interior_normalization_exact(self):
        params = ChainParams(0.8)
        circuit = toffoli13()
        table = chain_table(circuit_unitaries(circuit), params)
        for t in range(1, circuit.depth):
            fwd = table[(t, t + 1)]
            back = table[(t, t - 1)]
            total = fwd.conj().T @ fwd + back.conj().T @ back
            assert np.allclose(total, np.eye(8), atol=1e-14)

    def test_empty_circuit_rejected(self):
        # a chain needs a slice; Circuit refuses to exist without one
        with pytest.raises(CircuitError):
            Circuit(2, ())


class TestTwoNodeChain:
    def test_steady_state_closed_form(self):
        params = ChainParams(0.9)
        walk = keyed_chain([H], params)
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
        walk = keyed_chain([np.eye(2)], ChainParams(0.5))
        report = run_until_converged(
            walk, BlockState.pure(2, 2, 0, PSI), tol=1e-10, max_steps=100
        )
        assert np.allclose(report.history[-1], [0.5, 0.5], atol=1e-12)
        final = report.final_state
        assert np.allclose(final.blocks[0], final.blocks[1], atol=1e-12)


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
        walk = dense_chain(toffoli13(), ChainParams(0.5))
        init = BlockState.pure(walk.num_nodes, walk.dim, 0, basis_state(3, "110"))
        report = run_until_converged(walk, init, tol=1e-7)
        assert report.converged
        assert report.final_detection == pytest.approx(1.0 / 14.0, abs=1e-6)

    def test_biased_matches_analytic_and_is_faster(self):
        circuit = toffoli13()
        reports = {}
        for omega in (0.5, 0.9):
            walk = dense_chain(circuit, ChainParams(omega))
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
        walk = dense_chain(toffoli13(), ChainParams(0.5))
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
        walk = dense_chain(qft(3), ChainParams(0.7))
        init = BlockState.pure(walk.num_nodes, walk.dim, 0, basis_state(3, "000"))
        report = run_until_converged(walk, init, tol=1e-7)
        sums = report.history.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-10

    def test_forward_sweep_at_unit_omega(self):
        circuit = qft(3)
        walk = dense_chain(circuit, ChainParams(1.0))
        init = BlockState.pure(walk.num_nodes, walk.dim, 0, basis_state(3, "000"))
        report = run_until_converged(walk, init, tol=1e-9)
        t = circuit.depth
        assert report.history[t][t] == pytest.approx(1.0, abs=1e-12)
        assert report.history[t - 1][t] == 0.0

    def test_steady_state_factorization(self):
        # every node's normalized block is the partial computation on psi0
        circuit = toffoli13()
        walk = dense_chain(circuit, ChainParams(0.8))
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


class TestChainWalk:
    """``ChainWalk`` is a checked, immutable record of its slices and ω."""

    def test_is_a_record_of_the_compiled_slices(self):
        circuit = qft(3)
        params = ChainParams(0.7)
        chain = build_dqc_chain(circuit, params)
        assert not isinstance(chain, OpenQuantumWalk)
        assert not any(hasattr(chain, n) for n in ("_src", "_dst", "_scatter", "_b_ops", "_b_dag"))
        assert chain.params is params
        assert (chain.num_nodes, chain.dim) == (circuit.depth + 1, 8)
        for u, compiled in zip(chain.unitaries, circuit_unitaries(circuit), strict=True):
            assert np.shares_memory(u, compiled) and not u.flags.writeable
        with pytest.raises(FrozenInstanceError):
            chain.params = ChainParams(0.5)

    def test_caller_arrays_stay_writeable(self):
        u = H.copy()
        chain = ChainWalk([u], ChainParams(0.7))
        assert u.flags.writeable and not chain.unitaries[0].flags.writeable
        assert chain.unitaries[0].dtype == np.complex128

    @pytest.mark.parametrize("unitaries, match", [
        ([], "a chain has at least one slice, got 0"),
        ([np.zeros((0, 0))], "a chain's unitaries have dimension >= 1, got 0"),
    ], ids=["no-slice", "zero-dim"])
    def test_needs_a_slice_and_a_dimension(self, unitaries, match):
        with pytest.raises(DomainError, match=match):
            ChainWalk(unitaries, ChainParams(0.7))


class TestChainTable:
    """A chain's slices are checked with the messages of the edge table it
    would have: the shape of ``U_t``, and the first edge, in key order,
    whose coin is not finite."""

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
        walk = keyed_chain([H], params)
        report = run_until_converged(
            walk, BlockState.pure(2, 2, 0, PSI), tol=1e-10
        )
        rho = conditional_state(report.final_state, 1)
        expected = H @ np.outer(PSI, PSI.conj()) @ H.conj().T
        assert np.allclose(rho, expected, atol=1e-12)

    def test_toffoli_flips_target(self):
        walk = dense_chain(toffoli13(), ChainParams(0.8))
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
        walk = dense_chain(circuit, ChainParams(omega))
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
