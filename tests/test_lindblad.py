import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

from dense_lindblad import (
    dense_chain_jumps,
    dense_rhs,
    edge_table_reset,
    embed_blocks,
    lowering,
    node_block,
)
from oqwalk.circuits import Circuit, Gate, basis_state, circuit_unitaries, qft, toffoli13
from oqwalk.errors import CircuitError, DomainError, ShapeError
from oqwalk.lindblad import (
    MAX_RK4_STEPS,
    _rhs,
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
    """(source, target) -> the lab-frame coins W_dst B̃ W_src† of that pair's
    edges: a rate r off the diagonal of the generator as the coin √r·I, then
    the reset coins at register 0, where W_0 = I, in qubit order."""
    eye = np.eye(model.dim)
    frames = model._frames
    table = defaultdict(list)
    for d, s in zip(*np.nonzero(model._rates)):
        if d != s:
            coin = np.sqrt(model._rates[d, s]) * eye
            table[int(s), int(d)].append(frames[d] @ coin @ frames[s].conj().T)
    if model._resets:
        table[0, 0] += [lowering(model._resets, q) for q in range(1, model._resets + 1)]
    return table


def path_laplacian(num_nodes):
    """Unit-rate generator of the path graph 0 − 1 − … − (N−1)."""
    lap = np.diag(np.ones(num_nodes - 1), 1) + np.diag(np.ones(num_nodes - 1), -1)
    return lap - np.diag(lap.sum(axis=0))


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
        # each slice's jump is one forward and one backward edge, whose
        # lab-frame coins W_t·I·W_{t−1}† and W_{t−1}·I·W_t† are U_t and U_t†
        circuit = toffoli13()
        model = build_dqc_lindblad(circuit)
        assert (model.num_nodes, model.dim) == (14, 8)
        table = edge_table(model)
        pairs = [pair for pair, coins in table.items() for _ in coins]
        assert sorted(pairs) == sorted(
            p for t in range(1, 14) for p in ((t - 1, t), (t, t - 1))
        )
        for t, u in enumerate(circuit_unitaries(circuit), start=1):
            assert np.abs(table[t - 1, t][0] - u).max() < 1e-14
            assert np.abs(table[t, t - 1][0] - u.conj().T).max() < 1e-14

    def test_register_jumps_are_hermitian(self):
        # the backward coin is the adjoint of the forward one, so each jump
        # U ⊗ |t⟩⟨t−1| + U† ⊗ |t−1⟩⟨t| is Hermitian: in the frame both are
        # the identity at the same rate
        model = build_dqc_lindblad(toffoli13())
        table = edge_table(model)
        for t in range(1, 14):
            assert model._rates[t, t - 1] == model._rates[t - 1, t] == 1.0
            back, forward = table[t, t - 1][0], table[t - 1, t][0]
            assert np.abs(back - forward.conj().T).max() < 1e-15

    def test_chain_edges_are_unit_rates_of_the_path_laplacian(self):
        # in the history-state frame both coins of a slice are exactly I, so
        # the jumps U ⊗ |t⟩⟨t−1| + U† ⊗ |t−1⟩⟨t| are the path-graph Laplacian
        model = build_dqc_lindblad(toffoli13())
        assert np.array_equal(model._rates, path_laplacian(14))
        assert model._resets == 0 and model._g is None

    def test_frames_are_the_partial_products(self):
        circuit = toffoli13()
        frames = build_dqc_lindblad(circuit)._frames
        assert np.array_equal(frames[0], np.eye(8))
        for t, u in enumerate(circuit_unitaries(circuit), start=1):
            assert np.array_equal(frames[t], u @ frames[t - 1])

    def test_reset_jumps_added_per_qubit(self):
        base = build_dqc_lindblad(toffoli13())
        with_reset = build_dqc_lindblad(toffoli13(), include_reset=True)
        assert np.array_equal(with_reset._rates, base._rates)
        assert (base._resets, with_reset._resets) == (0, 3)
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
        # 17 registers of 16-dimensional blocks, past the old dense cap of
        # 256; the reset damping is one block, for register 0
        circuit = qft(4)
        model = build_dqc_lindblad(circuit, include_reset=True)
        assert (model.num_nodes, model.dim) == (circuit.depth + 1, 16)
        assert sum(map(len, edge_table(model).values())) == 2 * circuit.depth + 4
        assert model._g.shape == (1, 16, 16)
        popcount = [bin(x).count("1") for x in range(16)]
        assert np.array_equal(model._g[0], -0.5 * np.diag(popcount))

    def test_build_peaks_near_the_frames_it_keeps(self):
        # the chain's hops are scalar edges, so no dense identity coin is
        # stacked; at 2T + 6 coins that stack would peak near 5× the frames
        circuit = qft(6)
        circuit_unitaries(circuit)  # compiled and cached before tracing
        tracemalloc.start()
        try:
            model = build_dqc_lindblad(circuit, include_reset=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (model._frames.nbytes + model._frames_dag.nbytes)

    def test_resets_add_at_most_two_blocks_to_the_build(self):
        # the reset is index moves and one diagonal damping block, not q
        # dense coins and their daggers
        circuit = qft(6)
        circuit_unitaries(circuit)  # compiled and cached before tracing
        peaks = []
        for include_reset in (False, True):
            tracemalloc.start()
            try:
                build_dqc_lindblad(circuit, include_reset)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2 * 64**2 * 16

    def test_empty_circuit_rejected(self):
        # a model needs a slice; Circuit refuses to exist without one
        with pytest.raises(CircuitError):
            Circuit(1, ())


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


class TestResetOracle:
    """The reset as index moves against its edge-table form."""

    @pytest.mark.parametrize("num_qubits", range(1, 9))
    def test_rhs_is_bit_equal_to_the_edge_table_reset(self, num_qubits):
        rng = np.random.default_rng(40 + num_qubits)
        circuit = Circuit(num_qubits, ((Gate("H", (1,)),),))
        plain = build_dqc_lindblad(circuit)
        model = build_dqc_lindblad(circuit, include_reset=True)
        d = model.dim
        a = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
        blocks = a + a.conj().transpose(0, 2, 1)
        want = _rhs(plain, blocks)
        want[:1] += edge_table_reset(num_qubits, blocks[:1])
        got = _rhs(model, blocks)
        assert got.tobytes() == want.tobytes()


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
        # the reset's share of the generator is amplitude damping at register
        # 0: it moves |1⟩⟨1| to |0⟩⟨0| and leaves register 1 alone
        circuit = single_gate_circuit()
        rho = np.zeros((2, 2, 2), dtype=complex)
        rho[0] = np.diag([0.0, 1.0])
        reset = lindblad_rhs(build_dqc_lindblad(circuit, include_reset=True), rho)
        plain = lindblad_rhs(build_dqc_lindblad(circuit), rho)
        assert np.allclose(reset - plain, [np.diag([1.0, -1.0]), np.zeros((2, 2))],
                           atol=1e-14)

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

    def test_stationary_start_takes_no_step(self):
        model = build_dqc_lindblad(single_gate_circuit())
        rho0 = chain_mixture([H], basis_state(1, "0"), 2)
        result = integrate(model, rho0, dt=0.1, stop_tol=1e-12, max_time=5.0)
        assert result.stationary
        assert result.steps == 0
        assert np.abs(result.rho - rho0).max() < 1e-15

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
        model = build_dqc_lindblad(single_gate_circuit())
        with pytest.raises(DomainError):
            integrate(model, np.stack([np.eye(2)] * 2) / 4, dt=0.0)

    def test_step_count_is_bounded(self):
        model = build_dqc_lindblad(single_gate_circuit())
        rho0 = chain_mixture([H], basis_state(1, "0"), 2)
        # exactly the bound is planned, and the stationary start stops at once
        assert integrate(model, rho0, dt=1.0, max_time=MAX_RK4_STEPS).steps == 0
        with pytest.raises(DomainError, match="max_time/dt"):
            integrate(model, rho0, dt=1.0, max_time=MAX_RK4_STEPS + 0.5)

    @pytest.mark.parametrize("dt, detail", [
        (3.0, "total trace 0 (dt = 3)"),
        (1e300, "overflow encountered in multiply (dt = 1e+300)"),
    ])
    def test_divergence_names_the_step_and_dt(self, dt, detail):
        # the path Laplacian of two registers reaches −2: RK4 is stable up
        # to dt ≈ 1.39, so both step sizes grow the state
        model = build_dqc_lindblad(single_gate_circuit())
        with pytest.raises(ArithmeticError, match=r"^RK4 diverged at step \d+: ") as info:
            integrate(model, start_state(model, "0"), dt=dt, max_time=100 * dt)
        assert type(info.value) is ArithmeticError
        assert str(info.value).endswith(detail)

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


def dense_rk4(jumps, rho, dt, steps, stride):
    """``integrate``'s loop on the dense state: RK4 steps of ``dense_rhs``,
    Hermitized, renormalized on a trace drift above 1e-12, and sampled
    every ``stride`` steps and at the end."""
    rhs = lambda r: dense_rhs(jumps, r)
    rho = 0.5 * (rho + rho.conj().T)
    samples = [rho]
    for n in range(1, steps + 1):
        k1 = rhs(rho)
        k2 = rhs(rho + (0.5 * dt) * k1)
        k3 = rhs(rho + (0.5 * dt) * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        tr = np.trace(rho).real
        if abs(tr - 1.0) > 1e-12:
            rho = rho / tr
        if n % stride == 0 or n == steps:
            samples.append(rho)
    return samples


class TestIntegrateOracles:
    """``integrate``, frame lift included, against models written without it."""

    @pytest.mark.parametrize("include_reset", [False, True])
    def test_matches_a_dense_rk4_loop(self, include_reset):
        rng = np.random.default_rng(31)
        circuit = toffoli13()
        model = build_dqc_lindblad(circuit, include_reset=include_reset)
        blocks = random_block_state(rng, model.num_nodes, model.dim)
        seen = []
        result = integrate(model, blocks, dt=0.4, stop_tol=1e-300, max_time=2.0,
                           observer=lambda t, rho: seen.append(rho.copy()),
                           observe_every=0.8)
        assert result.steps == 5
        expected = dense_rk4(dense_chain_jumps(circuit, include_reset),
                             embed_blocks(blocks), 0.4, 5, 2)
        assert len(seen) == len(expected) == 4
        n = model.num_nodes
        for got, dense in zip(seen + [result.rho], expected + expected[-1:]):
            want = np.stack([node_block(dense, i, i, n) for i in range(n)])
            assert np.abs(got - want).max() < 1e-12

    def test_populations_follow_the_path_laplacian(self):
        # without resets the node populations obey p' = L p exactly, with L
        # the unit-rate path Laplacian on T+1 nodes, so RK4 on the master
        # equation is RK4 on p
        model = build_dqc_lindblad(toffoli13())
        seen = []
        result = integrate(model, start_state(model, "110"), dt=0.4, stop_tol=2e-6,
                           max_time=500.0, observer=lambda t, rho: seen.append(rho),
                           observe_every=0.4)
        assert result.stationary and result.steps == 457
        lap = path_laplacian(14)
        p = np.eye(14)[0]
        expected = [p]
        for _ in range(result.steps):
            k1 = lap @ p
            k2 = lap @ (p + 0.2 * k1)
            k3 = lap @ (p + 0.2 * k2)
            k4 = lap @ (p + 0.4 * k3)
            p = p + (0.4 / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            expected.append(p)
        assert len(seen) == len(expected)
        for rho, want in zip(seen, expected):
            assert np.abs(node_marginals(rho) - want).max() < 1e-12
        # the relaxation gap of the canonical model falls as π²/(T+1)²
        eigs = np.linalg.eigvalsh(lap)
        assert eigs[-1] == pytest.approx(0.0, abs=1e-14)
        assert -eigs[-2] == pytest.approx(2 - 2 * np.cos(np.pi / 14), rel=1e-12)


class TestNodeMarginals:
    def test_traces_of_node_blocks(self):
        # population on internal basis 1 at node 2 of three nodes
        blocks = np.zeros((3, 2, 2), dtype=complex)
        blocks[2, 1, 1] = 1.0
        assert np.allclose(node_marginals(blocks), [0.0, 0.0, 1.0])

    def test_shape_guard(self):
        with pytest.raises(ShapeError):
            node_marginals(np.eye(6))
