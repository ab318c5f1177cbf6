import math

import numpy as np
import pytest

from oqwalk import _kernels
from oqwalk.circuits import (
    Circuit,
    Gate,
    basis_state,
    circuit_unitaries,
    qft,
    toffoli13,
)
from oqwalk.errors import CircuitError, DomainError, ShapeError
from oqwalk.linalg import dagger, psd_check, trace_norm
from oqwalk.walk import (
    BlockState,
    ChainParams,
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

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
S = np.diag([1.0, 1j])

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
        assert validate(walk, 1e-10) == []

    def test_unnormalized_source_flagged(self):
        walk = OpenQuantumWalk(
            2, 2, {(0, 0): np.eye(2), (0, 1): np.eye(2), (1, 1): np.eye(2)}
        )
        bad = validate(walk, 1e-10)
        assert [v.source for v in bad] == [0]

    @pytest.mark.parametrize(
        "walk, tol",
        [
            # sources 0 and 2 unnormalized, 1 normalized, node 3 has no out-edges
            (
                OpenQuantumWalk(4, 2, {
                    (0, 0): 0.5 * H, (0, 1): 0.7 * S, (0, 3): 0.9 * X,
                    (1, 2): math.sqrt(0.3) * H, (1, 0): math.sqrt(0.7) * S,
                    (2, 3): 1.2 * np.eye(2), (2, 1): 0.4 * H @ S,
                }),
                1e-10,
            ),
            (build_dqc_chain(qft(3), ChainParams(0.6)), 0.0),
        ],
    )
    def test_matches_per_source_reference(self, walk, tol):
        expected = []
        for j in range(walk.num_nodes):
            acc = np.zeros((walk.dim, walk.dim), dtype=complex)
            for (src, _dst), b in walk.transitions.items():
                if src == j:
                    acc += b.conj().T @ b
            residual = np.linalg.norm(acc - np.eye(walk.dim))
            if residual > tol:
                expected.append((j, residual))
        got = validate(walk, tol)
        assert [v.source for v in got] == [j for j, _ in expected]
        for v, (_, residual) in zip(got, expected):
            assert abs(v.residual - residual) <= 1e-15

    @pytest.mark.parametrize("omega", [0.5, 0.8])
    def test_dqc_chain_is_normalized(self, omega):
        walk = build_dqc_chain(toffoli13(), ChainParams(omega))
        assert validate(walk, 1e-12) == []

    def test_dilated_operators_resolve_identity(self):
        # sum over all edges of M†M with M = B ⊗ |i><j| equals the identity
        walk = two_node_gate_walk(S, ChainParams(0.4))
        total = np.zeros((4, 4), dtype=complex)
        for (j, i), b in walk.transitions.items():
            ket_bra = np.zeros((2, 2))
            ket_bra[i, j] = 1.0
            m = np.kron(b, ket_bra)
            total += dagger(m) @ m
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
        for i in range(walk.num_nodes):
            hermitized = 0.5 * (state.blocks[i] + state.blocks[i].conj().T)
            assert psd_check(hermitized, 1e-10)


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
