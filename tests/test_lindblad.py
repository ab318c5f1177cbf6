import tracemalloc
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from dense_chain import seeded_circuit
from dense_lindblad import (
    dense_chain_jumps,
    dense_rhs,
    edge_table_reset,
    embed_blocks,
    frame_diagonal,
    frame_rhs,
    frame_rk4,
    lab_rhs,
    lowering,
    node_block,
    stacked_frames,
    stacked_lift,
    stacked_lower,
)
from oracles import render_circuit
from oqwalk import lindblad
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
from oqwalk.cli import main
from oqwalk.config import TOL
from oqwalk.errors import CircuitError, DomainError, ShapeError
from oqwalk.lindblad import (
    MAX_RK4_STEPS,
    _rhs,
    build_dqc_lindblad,
    integrate,
    node_marginals,
)
from oqwalk.walk import BlockState

W5 = Path(__file__).parent / "golden" / "w5.circ"

EPS = np.finfo(np.float64).eps
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


def start_state(model, bits):
    """Lab-frame blocks of a basis state at register 0."""
    psi = basis_state(len(bits), bits)
    return BlockState.pure(model.num_nodes, model.dim, 0, psi).blocks


def start_diagonal(model, bits):
    """The frame diagonal of ``start_state``, as ``integrate`` takes it."""
    return frame_diagonal(model._unitaries, start_state(model, bits))


def edge_table(model):
    """(source, target) -> the lab-frame coins W_dst B̃ W_src† of that pair's
    edges: a rate r off the diagonal of the generator as the coin √r·I, then
    the reset coins at register 0, where W_0 = I, read off the model's move
    list: its d/2 moves per qubit, in order, as one 0/1 matrix each."""
    eye = np.eye(model.dim)
    frames, _ = stacked_frames(model._unitaries)
    table = defaultdict(list)
    for d, s in zip(*np.nonzero(model._rates)):
        if d != s:
            coin = np.sqrt(model._rates[d, s]) * eye
            table[int(s), int(d)].append(frames[d] @ coin @ frames[s].conj().T)
    if model._moves is not None:
        num_qubits = model.dim.bit_length() - 1
        for src, dst in zip(*(np.split(a, num_qubits) for a in model._moves)):
            coin = np.zeros((model.dim, model.dim))
            coin[dst, src] = 1.0
            table[0, 0].append(coin)
    return table


def path_laplacian(num_nodes):
    """Unit-rate generator of the path graph 0 − 1 − … − (N−1)."""
    lap = np.diag(np.ones(num_nodes - 1), 1) + np.diag(np.ones(num_nodes - 1), -1)
    return lap - np.diag(lap.sum(axis=0))


def random_block_state(rng, num_nodes, dim):
    a = rng.normal(size=(num_nodes, dim, dim)) + 1j * rng.normal(size=(num_nodes, dim, dim))
    blocks = a @ a.conj().transpose(0, 2, 1)
    return blocks / np.einsum("nii->", blocks).real


def random_diagonal(rng, num_nodes, dim):
    """Random (N, d) probabilities of unit total."""
    p = rng.random((num_nodes, dim))
    return p / p.sum()


def diagonal_blocks(p):
    """(N, d, d) complex blocks with p on their diagonals."""
    blocks = np.zeros(p.shape + p.shape[1:], dtype=complex)
    np.einsum("nii->ni", blocks)[:] = p
    return blocks


def random_diagonal_start(rng, model):
    """Lab-frame blocks whose frame blocks are a random diagonal state."""
    p = random_diagonal(rng, model.num_nodes, model.dim)
    return stacked_lift(model._unitaries, diagonal_blocks(p))


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
        assert model._moves is None and model._g is None

    def test_frames_are_the_partial_products(self):
        # the stacked frames that the tests lower lab-frame states with are
        # W_0 = I and W_t = U_t W_{t−1} of the model's slices, and their daggers
        circuit = toffoli13()
        frames, frames_dag = stacked_frames(build_dqc_lindblad(circuit)._unitaries)
        assert len(frames) == 14
        assert np.array_equal(frames[0], np.eye(8))
        for t, u in enumerate(circuit_unitaries(circuit), start=1):
            assert np.array_equal(frames[t], u @ frames[t - 1])
        assert np.array_equal(frames_dag, frames.conj().transpose(0, 2, 1))

    def test_holds_the_compiled_slices_not_frames(self):
        circuit = toffoli13()
        model = build_dqc_lindblad(circuit)
        slices = circuit_unitaries(circuit)
        assert len(model._unitaries) == len(slices)
        assert all(a is b for a, b in zip(model._unitaries, slices))
        assert not hasattr(model, "_frames") and not hasattr(model, "_frames_dag")

    def test_reset_jumps_added_per_qubit(self):
        base = build_dqc_lindblad(toffoli13())
        with_reset = build_dqc_lindblad(toffoli13(), include_reset=True)
        assert np.array_equal(with_reset._rates, base._rates)
        assert base._moves is None
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
        # 256; the reset damping is the real diagonal of one block, for
        # register 0
        circuit = qft(4)
        model = build_dqc_lindblad(circuit, include_reset=True)
        assert (model.num_nodes, model.dim) == (circuit.depth + 1, 16)
        assert sum(map(len, edge_table(model).values())) == 2 * circuit.depth + 4
        assert model._g.shape == (16,) and model._g.dtype == np.float64

    @pytest.mark.parametrize("num_qubits", range(1, 9))
    def test_reset_damping_is_minus_half_the_popcount(self, num_qubits):
        # G = −½ Σ σ⁻†σ⁻ counts the set bits of x: a loop over the bits of
        # each x, independent of the model's move list
        model = build_dqc_lindblad(Circuit(num_qubits, ((Gate("H", (1,)),),)), True)
        popcount = [bin(x).count("1") for x in range(2**num_qubits)]
        assert model._g.dtype == np.float64
        assert model._g.tobytes() == (-0.5 * np.array(popcount, dtype=float)).tobytes()

    def test_build_holds_no_frames(self):
        # 7 qubits × 16 slices, compiled before tracing: one d×d frame is
        # 256 KiB, and a (T+1, d, d) stack of the frames and its daggers
        # 8.5 MiB.  The model keeps the shared slices, the path Laplacian
        # and the reset diagonal, so the build may hold, and peak at, at
        # most 64 KiB (measured: 4 KiB held, 10 KiB peak).
        circuit = seeded_circuit(112, 7, 16)
        circuit_unitaries(circuit)
        tracemalloc.start()
        try:
            model = build_dqc_lindblad(circuit, include_reset=True)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.dim == 128
        assert held <= 64 * 1024, held
        assert peak <= 64 * 1024, peak

    def test_resets_add_a_few_vectors_to_the_build(self):
        # the reset is index moves and the diagonal of its damping, not q
        # dense coins nor a dense d×d damping block (d² complex entries,
        # 64 KiB at d = 64): with the model alive, and at the peak, the
        # build with resets holds at most its move list, q·d/2 pairs of
        # int64 indices (3 KiB), and four more length-d float vectors
        # (measured: 3.8 KiB held, no higher peak)
        circuit = qft(6)
        circuit_unitaries(circuit)  # compiled and cached before tracing
        held, peaks = [], []
        for include_reset in (False, True):
            tracemalloc.start()
            try:
                model = build_dqc_lindblad(circuit, include_reset)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            held.append(current)
            peaks.append(peak)
            del model
        bound = 2 * (6 * 32) * 8 + 4 * 64 * 8
        assert held[1] - held[0] <= bound
        assert peaks[1] - peaks[0] <= bound

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
            got = embed_blocks(lab_rhs(model, blocks))
            expected = dense_rhs(jumps, embed_blocks(blocks))
            assert np.abs(got - expected).max() < 1e-12

    @pytest.mark.parametrize("include_reset", [False, True])
    def test_diagonal_rhs_is_the_frame_diagonal_of_the_dense_rhs(self, include_reset):
        # lift a diagonal frame state, apply the textbook dense generator and
        # lower the node blocks of the result: its diagonal is ``_rhs`` of the
        # frame diagonal, and it holds no coherence
        rng = np.random.default_rng(13)
        circuit = toffoli13()
        model = build_dqc_lindblad(circuit, include_reset=include_reset)
        jumps = dense_chain_jumps(circuit, include_reset)
        n = model.num_nodes
        for _ in range(3):
            p = random_diagonal(rng, n, model.dim)
            lab = stacked_lift(model._unitaries, diagonal_blocks(p))
            dense = dense_rhs(jumps, embed_blocks(lab))
            frame = stacked_lower(model._unitaries,
                                  np.stack([node_block(dense, i, i, n) for i in range(n)]))
            got = _rhs(model, p)
            assert np.abs(np.einsum("nii->ni", frame) - got).max() < 1e-12
            assert np.abs(frame - diagonal_blocks(got)).max() < 1e-12

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
    def test_frame_rhs_is_bit_equal_to_the_edge_table_reset(self, num_qubits):
        rng = np.random.default_rng(40 + num_qubits)
        circuit = Circuit(num_qubits, ((Gate("H", (1,)),),))
        plain = build_dqc_lindblad(circuit)
        model = build_dqc_lindblad(circuit, include_reset=True)
        d = model.dim
        a = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
        blocks = a + a.conj().transpose(0, 2, 1)
        want = frame_rhs(plain, blocks)
        want[:1] += edge_table_reset(num_qubits, blocks[:1])
        got = frame_rhs(model, blocks)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("num_qubits", range(1, 9))
    def test_rhs_is_bit_equal_to_the_diagonal_of_the_edge_table_reset(self, num_qubits):
        rng = np.random.default_rng(50 + num_qubits)
        circuit = Circuit(num_qubits, ((Gate("H", (1,)),),))
        plain = build_dqc_lindblad(circuit)
        model = build_dqc_lindblad(circuit, include_reset=True)
        p = rng.normal(size=(2, model.dim))
        reset = edge_table_reset(num_qubits, diagonal_blocks(p[:1]))
        want = _rhs(plain, p)
        want[:1] += np.einsum("nii->ni", reset).real
        got = _rhs(model, p)
        assert got.tobytes() == want.tobytes()
        assert not (reset - diagonal_blocks(np.einsum("nii->ni", reset))).any()


    def test_an_overflow_in_the_moves_is_a_drift_error(self):
        # 7e307 at node 0's one-bit entries 1, 2 and 4: all three move to 0,
        # and their sum, 2.1e308, overflows, while no other operation of the
        # generator leaves the floats.  −7e307 at node 0's entry 0 and the
        # negated row at node 2 keep every row sum finite, and 1 at node 1
        # makes the total 1 (numpy sums this (10, 8) array column by
        # column, so the ±7e307 cancel before the 1 is added).  The
        # overflow leaves a non-finite total, and the drift rule reports it
        # at that step, with no warning
        model = build_dqc_lindblad(qft(3), include_reset=True)
        p = np.zeros((model.num_nodes, model.dim))
        p[0, [0, 1, 2, 4]] = [-7e307, 7e307, 7e307, 7e307]
        p[2, [0, 1, 2, 4]] = [7e307, -7e307, -7e307, -7e307]
        p[1, 7] = 1.0
        assert p.sum() == 1.0
        plain = build_dqc_lindblad(qft(3))
        assert np.isfinite(_rhs(plain, p)).all()
        with np.errstate(over="ignore"):
            out = _rhs(model, p)
        assert np.isinf(out[0, 0]) and np.isfinite(np.delete(out, 0)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match=(
                    r"^RK4 diverged at step 1: total trace drifted to (nan|-?inf) "
                    r"\(dt = 0\.01\)$")):
                integrate(model, p, max_time=1.0)

    def test_moves_go_qubit_by_qubit(self):
        # qubit 1 is the top bit of x: its moves come first, then qubit 2's, ...
        model = build_dqc_lindblad(qft(3), include_reset=True)
        src, dst = model._moves
        assert src.tolist() == [4, 5, 6, 7, 2, 3, 6, 7, 1, 3, 5, 7]
        assert dst.tolist() == [0, 1, 2, 3, 0, 1, 4, 5, 0, 2, 4, 6]
        assert build_dqc_lindblad(qft(3))._moves is None


#: The step at which ``frame_rk4``'s total first drifts past TOL.trace, in 40
#: steps from all ones or a random start: only qft4 with reset at dt 0.65,
#: above its limit.  The other reset cases at 0.65 drift by at most 3.3e-12.
DRIFT_STEPS = {("qft4", True, "basis", 0.65): 13, ("qft4", True, "random", 0.65): 21}


class TestDiagonal:
    """The frame diagonal evolves alone: the library's real engine against
    the complex frame engine of ``tests/dense_lindblad.py``."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_CIRCUITS))
    @pytest.mark.parametrize("include_reset", [False, True])
    def test_frame_rhs_keeps_a_diagonal_state_diagonal_and_real(self, name, include_reset):
        # the Laplacian acts entry by entry, a reset moves a diagonal entry to
        # a diagonal entry and the damping is diagonal: the coherence stays
        # exactly zero, and the diagonal is ``_rhs``, bit for bit
        model = build_dqc_lindblad(BUILTIN_CIRCUITS[name](), include_reset=include_reset)
        p = random_diagonal(np.random.default_rng(60), model.num_nodes, model.dim)
        out = frame_rhs(model, diagonal_blocks(p))
        want = _rhs(model, p)
        assert out.tobytes() == diagonal_blocks(want).tobytes()

    @pytest.mark.parametrize("name", sorted(BUILTIN_CIRCUITS))
    @pytest.mark.parametrize("include_reset", [False, True])
    @pytest.mark.parametrize("start", ["basis", "random"])
    def test_samples_are_bit_equal_to_the_complex_frame_loop(self, name, include_reset,
                                                              start):
        # integrate's samples, one per step, are the traces of the complex
        # frame blocks that ``frame_rk4`` steps and Hermitizes.  dt = 0.65 is
        # above the stability limit of the reset runs from all ones, so their
        # rounding grows: where the loop's total first drifts past TOL.trace,
        # integrate raises at that step, and up to it the two stay bit-equal
        circuit = BUILTIN_CIRCUITS[name]()
        model = build_dqc_lindblad(circuit, include_reset=include_reset)
        if start == "basis":
            rho0 = start_state(model, "1" * circuit.num_qubits)
        else:
            rho0 = random_diagonal_start(np.random.default_rng(61), model)
        frame0 = stacked_lower(model._unitaries, rho0)
        p0 = np.einsum("nii->ni", frame0).real
        for dt in (0.25, 0.65):
            frames = list(frame_rk4(model, frame0, dt, 40))
            first = next((n for n, rho in enumerate(frames, start=1)
                          if abs(np.einsum("nii->", rho).real - 1.0) > TOL.trace), None)
            assert first == DRIFT_STEPS.get((name, include_reset, start, dt))
            steps = 40
            if first:
                steps = first - 1
                with pytest.raises(ArithmeticError, match=(
                        rf"^RK4 diverged at step {first}: total trace drifted to ")):
                    integrate(model, p0, dt=dt, stop_tol=1e-300, max_time=40 * dt)
            # half a step short of ``steps``, so that ceil(max_time/dt) is
            # ``steps`` however steps·dt rounds
            result = integrate(model, p0, dt=dt, stop_tol=1e-300,
                               max_time=(steps - 0.5) * dt, observe_every=dt)
            assert result.steps == steps
            for (_t, marginals), rho in zip(result.samples[1:], frames[:steps], strict=True):
                assert marginals.tobytes() == np.einsum("nii->n", rho).real.tobytes()


class TestRhs:
    def test_stationary_mixture_annihilated(self):
        circuit = single_gate_circuit()
        model = build_dqc_lindblad(circuit)
        psi0 = basis_state(1, "0")
        rho_star = chain_mixture([H], psi0, 2)
        assert np.linalg.norm(lab_rhs(model, rho_star)) < 1e-10

    def test_stationary_mixture_two_qubit_gate(self):
        circuit = Circuit(2, ((Gate("CNOT", (1, 2)),),), name="cnot1")
        model = build_dqc_lindblad(circuit)
        psi0 = basis_state(2, "10")
        cnot = np.eye(4)[:, [0, 1, 3, 2]].astype(complex)
        rho_star = chain_mixture([cnot], psi0, 2)
        assert np.linalg.norm(lab_rhs(model, rho_star)) < 1e-10

    def test_amplitude_damping_by_hand(self):
        # the reset's share of the generator is amplitude damping at register
        # 0: it moves |1⟩⟨1| to |0⟩⟨0| and leaves register 1 alone
        circuit = single_gate_circuit()
        rho = np.zeros((2, 2, 2), dtype=complex)
        rho[0] = np.diag([0.0, 1.0])
        reset = lab_rhs(build_dqc_lindblad(circuit, include_reset=True), rho)
        plain = lab_rhs(build_dqc_lindblad(circuit), rho)
        assert np.allclose(reset - plain, [np.diag([1.0, -1.0]), np.zeros((2, 2))],
                           atol=1e-14)

    def test_traceless_and_hermitian_on_random_states(self):
        rng = np.random.default_rng(0)
        model = build_dqc_lindblad(single_gate_circuit(), include_reset=True)
        for _ in range(10):
            out = lab_rhs(model, random_block_state(rng, 2, 2))
            assert abs(np.einsum("nii->", out)) < 1e-10
            assert np.linalg.norm(out - out.conj().transpose(0, 2, 1)) < 1e-10

    def test_input_validation(self):
        # the input is the (N, d) frame diagonal: (N, d, d) blocks, a wrong
        # width, a total off 1 by more than TOL.trace, as ``walk`` asks of a
        # block state, and NaN are refused
        model = build_dqc_lindblad(single_gate_circuit())
        with pytest.raises(ShapeError, match=r"frame diagonal of shape \(2, 2\)"):
            integrate(model, np.stack([np.eye(2) / 4] * 2))
        with pytest.raises(ShapeError):
            integrate(model, np.full((2, 3), 1 / 6))
        with pytest.raises(DomainError, match="unit total within 1e-10"):
            integrate(model, np.ones((2, 2)))
        near = np.array([[1.0 + 0.5 * TOL.trace, 0.0], [0.0, 0.0]])
        assert integrate(model, near, max_time=1.0).steps == 100
        for past in (1.0 + 2 * TOL.trace, 1.0 - 2 * TOL.trace):
            with pytest.raises(DomainError, match="unit total within 1e-10"):
                integrate(model, np.array([[past, 0.0], [0.0, 0.0]]))
        nan = np.full((2, 2), 0.25)
        nan[1, 0] = np.nan
        with pytest.raises(DomainError, match="NaN or Inf"):
            integrate(model, nan)


class TestIntegrate:
    def test_single_gate_relaxes_to_uniform_registers(self):
        model = build_dqc_lindblad(single_gate_circuit())
        result = integrate(model, start_diagonal(model, "0"), dt=0.01, stop_tol=1e-9,
                           max_time=50.0)
        assert result.stationary
        assert np.abs(result.samples[-1][1] - 0.5).max() < 1e-6

    def test_stationary_start_takes_no_step(self):
        model = build_dqc_lindblad(single_gate_circuit())
        p0 = frame_diagonal(model._unitaries, chain_mixture([H], basis_state(1, "0"), 2))
        result = integrate(model, p0, dt=0.1, stop_tol=1e-12, max_time=5.0)
        assert result.stationary
        assert result.steps == 0
        assert result.time == 0.0 and len(result.samples) == 1
        assert np.abs(result.samples[0][1] - 0.5).max() < 1e-15

    def test_trajectory_stays_physical(self):
        model = build_dqc_lindblad(single_gate_circuit())
        result = integrate(
            model, start_diagonal(model, "0"), dt=0.01, stop_tol=1e-9, max_time=30.0,
            observe_every=1.0,
        )
        samples = result.samples
        assert len(samples) > 3
        assert [t for t, _ in samples[:3]] == pytest.approx([0.0, 1.0, 2.0])
        for _t, marginals in samples:
            assert marginals.sum() == pytest.approx(1.0, abs=1e-10)
            assert marginals.min() >= -1e-12

    def test_stationary_state_independent_of_start(self):
        # empirical uniqueness: two different initial registers, same limit;
        # the state at register 1 is W_1|1⟩ = H|1⟩, so its frame block is |1⟩⟨1|
        model = build_dqc_lindblad(single_gate_circuit())
        final = []
        for psi, node in [(basis_state(1, "0"), 0), (H @ basis_state(1, "1"), 1)]:
            rho0 = BlockState.pure(model.num_nodes, model.dim, node, psi).blocks
            p0 = frame_diagonal(model._unitaries, rho0)
            res = integrate(model, p0, dt=0.02, stop_tol=1e-10, max_time=100.0)
            final.append(res.samples[-1][1])
        assert np.abs(final[0] - final[1]).max() < 1e-8

    def test_reset_jumps_keep_mixture_stationary_for_zero_input(self):
        circuit = single_gate_circuit()
        model = build_dqc_lindblad(circuit, include_reset=True)
        psi0 = basis_state(1, "0")
        rho_star = chain_mixture([H], psi0, 2)
        assert np.linalg.norm(lab_rhs(model, rho_star)) < 1e-10

    def test_rejects_bad_dt(self):
        model = build_dqc_lindblad(single_gate_circuit())
        with pytest.raises(DomainError):
            integrate(model, np.full((2, 2), 0.25), dt=0.0)

    def test_step_count_is_bounded(self):
        model = build_dqc_lindblad(single_gate_circuit())
        p0 = frame_diagonal(model._unitaries, chain_mixture([H], basis_state(1, "0"), 2))
        # exactly the bound is planned, and the stationary start stops at once
        assert integrate(model, p0, dt=1.0, max_time=MAX_RK4_STEPS).steps == 0
        with pytest.raises(DomainError, match="max_time/dt"):
            integrate(model, p0, dt=1.0, max_time=MAX_RK4_STEPS + 0.5)

    def test_peak_memory_is_below_one_input_stack(self):
        # 7 qubits × 16 slices with resets, compiled before tracing: the
        # (17, 128) frame diagonal is 17 KiB, where a lab-frame input stack
        # of (17, 128, 128) complex blocks was 4.3 MiB.  The run holds only
        # the state, the four RK4 stages and their sums (the model holds the
        # reset moves), so its peak is a few diagonals (measured: 8.1), far
        # below one stack
        circuit = seeded_circuit(112, 7, 16)
        circuit_unitaries(circuit)
        model = build_dqc_lindblad(circuit, include_reset=True)
        p0 = start_diagonal(model, "1111110")
        tracemalloc.start()
        try:
            result = integrate(model, p0, dt=0.1, stop_tol=1e-300, max_time=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.steps == 10
        assert peak <= 12 * p0.nbytes, peak / p0.nbytes
        assert 12 * p0.nbytes < model.num_nodes * model.dim**2 * 16

    @pytest.mark.parametrize("dt, detail", [
        (3.0, "total trace drifted to 2 (dt = 3)"),
        (1e300, "total trace drifted to nan (dt = 1e+300)"),
    ])
    def test_divergence_names_the_step_and_dt(self, dt, detail):
        # the path Laplacian of two registers reaches −2: RK4 is stable up
        # to dt ≈ 1.39, so both step sizes grow the state.  At dt = 3 the
        # mode of eigenvalue −2 grows 31-fold a step, and its rounding
        # moves the conserved total at step 11; at 1e300 the first step
        # overflows, and its total is nan
        model = build_dqc_lindblad(single_gate_circuit())
        with pytest.raises(ArithmeticError, match=r"^RK4 diverged at step \d+: ") as info:
            integrate(model, start_diagonal(model, "0"), dt=dt, max_time=100 * dt)
        assert type(info.value) is ArithmeticError
        assert str(info.value).endswith(detail)

    def test_a_node_total_that_overflows_is_refused_at_t0(self):
        # every entry is finite and the total is 1, so the input checks
        # pass, but node 0's sequential sum reaches 2.1e308 and overflows:
        # the t = 0 sample is refused, with no warning
        model = build_dqc_lindblad(Circuit(3, ((Gate("H", (1,)),),)))
        p0 = np.zeros((2, 8))
        p0[0, :3] = 7e307
        p0[0, 7] = 1.0
        p0[1, :3] = -7e307
        assert p0.sum() == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^p0 has a node total that is not finite$"):
                integrate(model, p0)

    def test_matches_balanced_walk_marginals(self):
        # continuous-time stationary registers are uniform, exactly what the
        # discrete walk gives at omega = 1/2: the two models tie together
        from dense_chain import keyed_chain
        from oqwalk.walk import ChainParams, run_until_converged

        model = build_dqc_lindblad(single_gate_circuit())
        rho0 = start_state(model, "0")
        res = integrate(model, start_diagonal(model, "0"), dt=0.01, stop_tol=1e-9,
                        max_time=50.0)
        continuous = res.samples[-1][1]

        walk = keyed_chain([H], ChainParams(0.5))
        report = run_until_converged(walk, BlockState(rho0), tol=1e-10)
        assert np.abs(continuous - report.history[-1]).max() < 1e-6


def dense_rk4(jumps, rho, dt, steps, stride):
    """``integrate``'s loop on the dense state: RK4 steps of ``dense_rhs``,
    Hermitized, and sampled every ``stride`` steps and at the end."""
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
        if n % stride == 0 or n == steps:
            samples.append(rho)
    return samples


def path_rk4(num_nodes, dt, steps):
    """RK4 of the path Laplacian L_T from e₀: the (steps + 1, T + 1) node
    populations before and after each step."""
    lap = path_laplacian(num_nodes)
    p = np.eye(num_nodes)[0]
    out = [p]
    for _ in range(steps):
        k1 = lap @ p
        k2 = lap @ (p + (0.5 * dt) * k1)
        k3 = lap @ (p + (0.5 * dt) * k2)
        k4 = lap @ (p + dt * k3)
        p = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(p)
    return np.array(out)


#: How far RK4's stability interval reaches along the negative real axis:
#: −z for the real root z ≈ −2.785 of R(z) − 1 = z(1 + z/2 + z²/6 + z³/24).
RK4_EDGE = -min(r.real for r in np.roots([1 / 24, 1 / 6, 1 / 2, 1]) if abs(r.imag) < 1e-12)


def rk4_limit(num_nodes, popcount):
    """The largest stable ``dt`` from an input of this popcount at node 0
    with resets (0 without): ordered by x, the generator on the frame
    diagonal is block triangular, with diagonal blocks L_T − k·E₀₀ for the
    popcounts k the resets reach from the input, and k = popcount has the
    largest spectral radius."""
    block = path_laplacian(num_nodes)
    block[0, 0] -= popcount
    return RK4_EDGE / -np.linalg.eigvalsh(block)[0]


#: Circuits of the marginal oracle: the built-ins, and seeded files of 5-8
#: qubits, with their depth.
MARGINAL_CASES = [*sorted(BUILTIN_CIRCUITS), "5x12", "6x10", "7x8", "8x4"]

#: How far the samples may lie from RK4(L_T)·e₀ below the stability limit.
#: A step rounds each entry of the (N, d) diagonal within a few ε of the
#: terms that form it, and the node sums add the entries' rounding, so each
#: step adds a few ε·‖p‖₁ to a marginal.  RK4(L_T) does not amplify what
#: was added before: ρ(L_T) is below every reset block's, so |R(dt·λ)| ≤ 1
#: on its spectrum.  With reset, ‖p‖₁ grows while the reset columns cancel
#: under bounded row sums: up to 24 on the 8-qubit file from all ones at 0.9
#: of its limit, where the largest gap, 20.25ε, was measured.
MARGINAL_TOL = 64 * EPS


class TestMarginalOracle:
    """The resets conserve node 0's total, so summing each node's row of the
    frame diagonal maps RK4 of the whole generator to RK4 of the path
    Laplacian alone: in exact arithmetic the samples are RK4(L_T)·e₀ for
    every width, input and reset flag.  No rescale enters either side."""

    @pytest.mark.parametrize("name", MARGINAL_CASES)
    def test_samples_are_rk4_of_the_path_laplacian_from_node_zero(self, name):
        if name in BUILTIN_CIRCUITS:
            circuit = BUILTIN_CIRCUITS[name]()
        else:
            qubits, depth = map(int, name.split("x"))
            circuit = seeded_circuit(qubits * depth, qubits, depth)
        q = circuit.num_qubits
        steps = 120
        for include_reset in (False, True):
            model = build_dqc_lindblad(circuit, include_reset=include_reset)
            for x in (0, 1 << (q - 1), 2**q - 1):  # zero, one-hot and all-ones
                popcount = bin(x).count("1") if include_reset else 0
                dt = 0.9 * rk4_limit(model.num_nodes, popcount)
                p0 = np.zeros((model.num_nodes, model.dim))
                p0[0, x] = 1.0
                result = integrate(model, p0, dt=dt, stop_tol=1e-300,
                                   max_time=(steps - 0.5) * dt, observe_every=dt)
                assert result.steps == steps
                got = np.array([marginals for _t, marginals in result.samples])
                gap = np.abs(got - path_rk4(model.num_nodes, dt, steps)).max()
                assert gap <= MARGINAL_TOL, (include_reset, x, dt, gap / EPS)


def marginal_gap(big_t):
    """The smallest nonzero rate of L_T: how fast the marginals relax."""
    return 2 - 2 * np.cos(np.pi / (big_t + 1))


def reset_gap(big_t):
    """The smallest rate of L_T − E₀₀, the popcount-1 block."""
    return 2 - 2 * np.cos(np.pi / (2 * big_t + 3))


class TestStopRate:
    """What ``stationary`` judges: ‖rhs‖_F over the whole (N, d) frame
    diagonal, not the marginals.  Ordered by x, the generator is block
    triangular with blocks L_T − k·E₀₀ for the popcounts k the resets reach
    from the input, and its slowest nonzero mode sets the rate: the marginal
    gap from 000, where no reset acts, and the popcount-1 block's from any
    input a reset acts on, under a quarter of the marginal gap."""

    @pytest.mark.parametrize("big_t", [9, 13, 16, 96])
    def test_the_reset_gap_is_the_smallest_rate_of_the_popcount_one_block(self, big_t):
        block = path_laplacian(big_t + 1)
        block[0, 0] -= 1
        assert -np.linalg.eigvalsh(block)[-1] == pytest.approx(reset_gap(big_t), rel=1e-12)
        assert reset_gap(big_t) < marginal_gap(big_t) / 4

    @pytest.mark.parametrize("bits, include_reset, gap, t1, t2, bound", [
        # one slowest mode: within RK4's own rate error, (dt·gap)⁴/120 ≤ 5e-8
        ("000", False, marginal_gap, 50, 150, 1e-6),
        ("000", True, marginal_gap, 50, 150, 1e-6),
        ("100", True, reset_gap, 200, 400, 1e-6),
        # from popcount 2, the block L_T − 2E₀₀ decays at 0.0246, only 0.0023
        # faster, so its share fades slowly: measured 1.1e-2 here
        ("110", True, reset_gap, 400, 800, 2e-2),
    ])
    def test_rhs_norm_decays_at_the_slowest_rate(self, bits, include_reset, gap, t1, t2,
                                                 bound):
        # qft3, T = 9: ‖rhs‖_F after two run lengths gives the decay rate
        model = build_dqc_lindblad(qft(3), include_reset=include_reset)
        p0 = np.zeros((model.num_nodes, model.dim))
        p0[0, int(bits, 2)] = 1.0
        norms = [integrate(model, p0, dt=0.5, stop_tol=1e-300, max_time=t).rhs_norm
                 for t in (t1, t2)]
        rate = np.log(norms[0] / norms[1]) / (t2 - t1)
        assert abs(rate / gap(model.num_nodes - 1) - 1.0) <= bound, rate


class TestIntegrateOracles:
    """``integrate``, frame diagonal included, against models written without
    the frame."""

    @pytest.mark.parametrize("include_reset", [False, True])
    def test_matches_a_dense_rk4_loop(self, include_reset):
        # the samples at steps 0, 2, 4 and 5 against the traces of the node
        # blocks of the textbook dense RK4 on the full lab-frame state, from a
        # random diagonal frame state lifted to the lab frame
        rng = np.random.default_rng(31)
        circuit = toffoli13()
        model = build_dqc_lindblad(circuit, include_reset=include_reset)
        blocks = random_diagonal_start(rng, model)
        result = integrate(model, frame_diagonal(model._unitaries, blocks), dt=0.4,
                           stop_tol=1e-300, max_time=2.0, observe_every=0.8)
        assert result.steps == 5
        expected = dense_rk4(dense_chain_jumps(circuit, include_reset),
                             embed_blocks(blocks), 0.4, 5, 2)
        assert [t for t, _ in result.samples] == pytest.approx([0.0, 0.8, 1.6, 2.0])
        assert len(expected) == 4
        n = model.num_nodes
        for (_t, marginals), dense in zip(result.samples, expected, strict=True):
            want = [np.trace(node_block(dense, i, i, n)).real for i in range(n)]
            assert np.abs(marginals - want).max() < 1e-12

    def test_populations_follow_the_path_laplacian(self):
        # without resets the node populations obey p' = L p exactly, with L
        # the unit-rate path Laplacian on T+1 nodes, so RK4 on the master
        # equation is RK4 on p
        model = build_dqc_lindblad(toffoli13())
        result = integrate(model, start_diagonal(model, "110"), dt=0.4, stop_tol=2e-6,
                           max_time=500.0, observe_every=0.4)
        assert result.stationary and result.steps == 457
        expected = path_rk4(14, 0.4, result.steps)
        assert len(result.samples) == len(expected)
        for (_t, marginals), want in zip(result.samples, expected):
            assert np.abs(marginals - want).max() < 1e-12
        # the relaxation gap of the canonical model falls as π²/(T+1)²
        eigs = np.linalg.eigvalsh(path_laplacian(14))
        assert eigs[-1] == pytest.approx(0.0, abs=1e-14)
        assert -eigs[-2] == pytest.approx(2 - 2 * np.cos(np.pi / 14), rel=1e-12)


def lift_rounding_bound(model, lifted):
    """How far, per node, the trace of a lifted block W ρ̃ W† may lie from
    the trace of the frame block ρ̃ by rounding alone.

    Each entry of a complex d×d product is a d-term sum, off by at most
    (d + 2)·ε times the sum of its terms' moduli (ε the machine epsilon,
    which also covers the complex multiplications).  Summed over the
    diagonal, and with Σ_ij |W_ij|² = d for a unitary W, each of the two
    products of the lift moves the trace by at most (d + 2)·ε·d·‖ρ̃‖_F.
    The two d-term trace sums add at most d·ε·‖ρ̃‖_F each, and the stored
    frame, unitary only to rounding, moves it by up to ‖W†W − I‖_F·‖ρ̃‖_F.
    ‖ρ̃‖_F is read off the lifted block, where it agrees to rounding.  Over
    the cases below the largest gap was 1.7e-16, a twentieth of its bound.
    """
    d = model.dim
    frames, _ = stacked_frames(model._unitaries)
    defect = np.linalg.norm(frames.conj().transpose(0, 2, 1) @ frames - np.eye(d),
                            axis=(1, 2))
    norm = np.linalg.norm(lifted, axis=(1, 2))
    return (2 * (d + 2) * d * EPS + 2 * d * EPS + defect) * norm


class TestFrameSamples:
    """The samples are the traces of the frame state; lifting that state to
    the lab frame at the same step moves them only by rounding."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_CIRCUITS))
    @pytest.mark.parametrize("include_reset", [False, True])
    @pytest.mark.parametrize("start", ["basis", "random"])
    def test_samples_are_the_lifted_marginals_within_rounding(self, name, include_reset,
                                                               start):
        # the frame state of step k is that of the complex frame loop, whose
        # traces the samples are, bit for bit (TestDiagonal)
        circuit = BUILTIN_CIRCUITS[name]()
        model = build_dqc_lindblad(circuit, include_reset=include_reset)
        if start == "basis":
            rho0 = start_state(model, "1" * circuit.num_qubits)
        else:
            rho0 = random_diagonal_start(np.random.default_rng(50), model)
        frame0 = stacked_lower(model._unitaries, rho0)
        samples = integrate(model, np.einsum("nii->ni", frame0).real, dt=0.25,
                            stop_tol=1e-300, max_time=2.0, observe_every=0.25).samples
        assert len(samples) == 9
        frames = [frame0, *frame_rk4(model, frame0, 0.25, 8)]
        for k, ((_t, marginals), frame) in enumerate(zip(samples, frames, strict=True)):
            lifted = stacked_lift(model._unitaries, frame)
            gap = np.abs(marginals - np.einsum("nii->n", lifted).real)
            bound = lift_rounding_bound(model, lifted)
            assert (gap <= bound).all(), (k, gap.max())


FRAME_CASES = [*sorted(BUILTIN_CIRCUITS), "w5.circ", "4x16", "5x12", "6x10", "7x8"]


class TestFrames:
    """The input is the frame diagonal: the CLI builds it without a frame,
    and ``integrate`` neither lowers it nor reads a frame."""

    @pytest.mark.parametrize("name", FRAME_CASES)
    @pytest.mark.parametrize("include_reset", [False, True])
    def test_frame_diagonal_is_bit_equal_to_the_stacked_frames(self, name, include_reset,
                                                               tmp_path, monkeypatch):
        # the one-hot row that ``oqw lindblad`` passes has the bits of the
        # diagonal of its lab-frame basis state at register 0, lowered by the
        # batched products with the whole (T+1, d, d) stack of frames
        if name == "w5.circ":
            circuit, arg = parse_circuit(W5.read_text(encoding="utf-8")), str(W5)
        elif name in BUILTIN_CIRCUITS:
            circuit, arg = BUILTIN_CIRCUITS[name](), name
        else:
            qubits, depth = map(int, name.split("x"))
            circuit = seeded_circuit(qubits * depth, qubits, depth)
            arg = str(tmp_path / f"{name}.circ")
            Path(arg).write_text(render_circuit(circuit), encoding="utf-8")
        dim = 2**circuit.num_qubits
        x = int(np.random.default_rng(dim).integers(dim))
        bits = format(x, f"0{circuit.num_qubits}b")
        seen = []
        run = lindblad.integrate

        def spy(model, p0, **kwargs):
            seen.append((model, p0))
            return run(model, p0, **kwargs)

        monkeypatch.setattr(lindblad, "integrate", spy)
        argv = ["lindblad", "--circuit", arg, "--input", bits, "--dt", "0.1",
                "--max-time", "0.1", "--out", str(tmp_path / "out.csv")]
        assert main(argv + ["--include-reset"] * include_reset) in (0, 1)
        [(model, p0)] = seen
        assert (model._moves is not None) == include_reset
        rho = start_state(model, bits)
        want = frame_diagonal(circuit_unitaries(circuit), rho)
        assert p0.dtype == want.dtype and p0.shape == want.shape
        assert p0.tobytes() == want.tobytes()

    @pytest.mark.parametrize("filled", [(0,), (0, 4), (3,), (2, 5, 9)])
    def test_zero_blocks_stay_zero_and_no_frame_past_the_last_is_built(self, filled):
        # qft3 with resets has 10 nodes; integrate never reads the slices, so
        # no frame is built at all, and from a diagonal whose only non-zero
        # rows are ``filled`` its samples are the traces of the complex frame
        # loop, bit for bit, starting with exact zeros on the empty nodes
        model = build_dqc_lindblad(qft(3), include_reset=True)
        p = random_diagonal(np.random.default_rng(80), model.num_nodes, model.dim)
        empty = [t for t in range(model.num_nodes) if t not in filled]
        p[empty] = 0.0
        p /= p.sum()
        frames = list(frame_rk4(model, diagonal_blocks(p), 0.25, 4))
        model._unitaries = None
        result = integrate(model, p, dt=0.25, stop_tol=1e-300, max_time=1.0,
                           observe_every=0.25)
        first = result.samples[0][1]
        assert not first[empty].any()
        assert first[list(filled)].tobytes() == node_marginals(p)[list(filled)].tobytes()
        assert len(result.samples) == 5
        for (_t, marginals), rho in zip(result.samples[1:], frames, strict=True):
            assert marginals.tobytes() == np.einsum("nii->n", rho).real.tobytes()

    def test_a_block_past_a_zero_block_is_still_checked(self):
        # node 1 is empty, node 2 holds a NaN or the excess of the total
        model = build_dqc_lindblad(qft(3))
        p = np.zeros((model.num_nodes, model.dim))
        p[0, 0] = p[2, 1] = 0.5
        cases = [(np.nan, "NaN or Inf"), (np.inf, "NaN or Inf"), (1.0, "unit total")]
        for bad, match in cases:
            q = p.copy()
            q[2, 3] = bad
            with pytest.raises(DomainError, match=match):
                integrate(model, q)


class TestNodeMarginals:
    def test_row_sums_of_the_frame_diagonal(self):
        # population on internal basis 1 at node 2 of three nodes
        p = np.zeros((3, 2))
        p[2, 1] = 1.0
        assert np.array_equal(node_marginals(p), [0.0, 0.0, 1.0])

    def test_sums_have_the_bits_of_the_block_traces(self):
        # sequential sums, as the trace of a block sums its diagonal; numpy's
        # pairwise sum differs in the last bits on some of these rows
        rng = np.random.default_rng(70)
        pairwise_differs = False
        for d in (8, 32, 128):
            p = random_diagonal(rng, 5, d)
            traces = np.einsum("nii->n", diagonal_blocks(p)).real
            assert node_marginals(p).tobytes() == traces.tobytes()
            pairwise_differs |= p.sum(axis=1).tobytes() != traces.tobytes()
        assert pairwise_differs

    def test_shape_guard(self):
        # a stack of (N, d, d) blocks is not the (N, d) frame diagonal
        with pytest.raises(ShapeError):
            node_marginals(np.zeros((3, 2, 2)))
        with pytest.raises(ShapeError):
            node_marginals(np.ones(6))
