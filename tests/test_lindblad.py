import math
import re
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
    level_columns,
    lift_levels,
    lumped_l1,
    node_block,
    path_laplacian,
    path_rk4,
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
    build_dqc_lindblad,
    integrate,
    node_marginals,
)
from oqwalk.walk import BlockState

W5 = Path(__file__).parent / "golden" / "w5.circ"

EPS = np.finfo(np.float64).eps
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

#: How far a sample of the lumped chain may lie from the exact one, per unit
#: of ‖p‖₁, the ℓ1 norm of the frame diagonal the lumped state stands for.
#: A step rounds each lumped entry within a few ε of its terms, and the node
#: total weighs level j's entry by its C(k, j) columns, so a step adds a few
#: ε·‖p‖₁ to a marginal.  Below the stability limit the RK4 map does not
#: amplify what was added before, and ‖p‖₁ stays 1 while the diagonal stays
#: non-negative; near the limit RK4's negative excursions cancel across the
#: columns, and ‖p‖₁ grows (to 24 from 8 set bits, 121 from 12).  Over every
#: case below the largest gap was 0.69ε·‖p‖₁.
ROUNDING = 2 * EPS


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


def start_state(num_nodes, bits):
    """Lab-frame blocks of a basis state at register 0."""
    psi = basis_state(len(bits), bits)
    return BlockState.pure(num_nodes, len(psi), 0, psi).blocks


def random_levels(rng, model):
    """A random non-negative lumped state of unit total."""
    q = rng.random((model.num_nodes, len(model.weights)))
    return q / (q.sum(axis=0) @ model.weights)


def lumped_rhs(model, q):
    """The model's generator applied to the lumped state q."""
    return (model._generator @ q.reshape(-1)).reshape(q.shape)


def lumped_scale(model, q, x, dim):
    """The frame diagonal of |Q|·|q|: per entry, the sum of the moduli of
    the terms that the generator adds."""
    return lift_levels((np.abs(model._generator) @ np.abs(q).reshape(-1)).reshape(q.shape),
                       x, dim)


def edge_table(model):
    """(source, target) -> the lab-frame coins W_dst B̃ W_src† of a one-level
    model's hops: a rate r off the diagonal of its generator as the coin
    √r·I between the frames of the two registers."""
    assert model.weights.tolist() == [1.0]
    rates = model._generator
    frames, _ = stacked_frames(model._unitaries)
    eye = np.eye(frames.shape[1])
    table = defaultdict(list)
    for d, s in zip(*np.nonzero(rates)):
        if d != s:
            coin = np.sqrt(rates[d, s]) * eye
            table[int(s), int(d)].append(frames[d] @ coin @ frames[s].conj().T)
    return table


def diagonal_blocks(p):
    """(N, d, d) complex blocks with p on their diagonals."""
    blocks = np.zeros(p.shape + p.shape[1:], dtype=complex)
    np.einsum("nii->ni", blocks)[:] = p
    return blocks


def random_block_state(rng, num_nodes, dim):
    a = rng.normal(size=(num_nodes, dim, dim)) + 1j * rng.normal(size=(num_nodes, dim, dim))
    blocks = a @ a.conj().transpose(0, 2, 1)
    return blocks / np.einsum("nii->", blocks).real


def ones_model(circuit, include_reset):
    """The model of ``circuit`` from its all-ones input, and that input."""
    num_qubits = circuit.num_qubits
    model = build_dqc_lindblad(circuit, include_reset, popcount=num_qubits)
    return model, 2**num_qubits - 1


class TestBuildModel:
    def test_single_gate_jump_form(self):
        model = build_dqc_lindblad(single_gate_circuit())
        assert (model.num_nodes, len(model.weights)) == (2, 1)
        table = edge_table(model)
        assert sorted(table) == [(0, 1), (1, 0)]
        assert np.allclose(table[0, 1], [H], atol=1e-15)
        assert np.allclose(table[1, 0], [H.conj().T], atol=1e-15)

    def test_one_jump_per_slice(self):
        # each slice's jump is one forward and one backward edge, whose
        # lab-frame coins W_t·I·W_{t−1}† and W_{t−1}·I·W_t† are U_t and U_t†
        circuit = toffoli13()
        model = build_dqc_lindblad(circuit)
        assert (model.num_nodes, len(model.weights)) == (14, 1)
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
            assert model._generator[t, t - 1] == model._generator[t - 1, t] == 1.0
            back, forward = table[t, t - 1][0], table[t - 1, t][0]
            assert np.abs(back - forward.conj().T).max() < 1e-15

    def test_chain_edges_are_unit_rates_of_the_path_laplacian(self):
        # in the history-state frame both coins of a slice are exactly I, so
        # the jumps U ⊗ |t⟩⟨t−1| + U† ⊗ |t−1⟩⟨t| are the path-graph Laplacian.
        # Without resets the popcount does not enter, and with resets from
        # an input without set bits the model has one level too
        for include_reset, popcount in ((False, 0), (False, 3), (True, 0)):
            model = build_dqc_lindblad(toffoli13(), include_reset, popcount)
            assert np.array_equal(model._generator, path_laplacian(14))
            assert model.weights.tolist() == [1.0]

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

    def test_resets_act_only_in_the_level_block_of_register_zero(self):
        # qft4 from 1011: 17 registers of 4 levels, weighted 1, 3, 3, 1.
        # Level j gains (k − j)·q[0, j+1] and loses j·q[0, j]; the hops are
        # kron(L_T, I), the same on every level
        model = build_dqc_lindblad(qft(4), include_reset=True, popcount=3)
        assert model.weights.tolist() == [1.0, 3.0, 3.0, 1.0]
        reset = model._generator - np.kron(path_laplacian(17), np.eye(4))
        assert not reset[4:].any() and not reset[:, 4:].any()
        assert np.array_equal(reset[:4, :4], [[0, 3, 0, 0], [0, -1, 2, 0],
                                               [0, 0, -2, 1], [0, 0, 0, -3]])

    @pytest.mark.parametrize("popcount", range(4))
    @pytest.mark.parametrize("include_reset", [False, True])
    def test_the_start_is_the_basis_input_at_its_top_level(self, popcount, include_reset):
        # qft3 has 10 registers; a basis input at register 0 is its own
        # frame column, which stands alone at level k: the popcount with
        # resets, 0 without
        model = build_dqc_lindblad(qft(3), include_reset, popcount)
        k = popcount if include_reset else 0
        want = np.zeros((10, k + 1))
        want[0, k] = 1.0
        assert model.start.dtype == want.dtype and model.start.shape == want.shape
        assert model.start.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            model.start[0, 0] = 0.5

    def test_the_state_does_not_grow_with_the_width(self, monkeypatch):
        # (T+1)·(k+1) levels whatever the width: a 12-qubit, 16-slice file
        # from all ones is 17 × 13.  The model reads only the slice count of
        # the compile, which is stubbed here (it would be 4 GiB)
        monkeypatch.setattr(lindblad, "circuit_unitaries",
                            lambda circuit: [None] * circuit.depth)
        model, _ = ones_model(seeded_circuit(7, 12, 16), include_reset=True)
        assert model._generator.shape == (17 * 13, 17 * 13)
        assert model.weights.tolist() == [float(math.comb(12, j)) for j in range(13)]

    def test_build_holds_no_frames(self):
        # 7 qubits × 16 slices from 1111110, compiled before tracing: one d×d
        # frame is 256 KiB, and a (T+1, d, d) stack of the frames and its
        # daggers 8.5 MiB.  The model keeps the shared slices and its
        # (T+1)(k+1)-square generator, 148 KiB here, so the build may hold
        # at most that and 8 KiB, and peak at three generators, the product
        # and the sum that build it (measured: the generator and 1 KiB held,
        # 2.0 generators at the peak)
        circuit = seeded_circuit(112, 7, 16)
        circuit_unitaries(circuit)
        tracemalloc.start()
        try:
            model = build_dqc_lindblad(circuit, include_reset=True, popcount=6)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = model._generator.nbytes
        assert size == (17 * 7) ** 2 * 8
        assert held <= size + 8 * 1024, held
        assert peak <= 3 * size, peak / size

    def test_empty_circuit_rejected(self):
        # a model needs a slice; Circuit refuses to exist without one
        with pytest.raises(CircuitError):
            Circuit(1, ())

    @pytest.mark.parametrize("popcount", [-1, 4])
    def test_a_popcount_outside_the_width_is_rejected(self, popcount):
        with pytest.raises(DomainError, match=r"popcount must be in 0\.\.3"):
            build_dqc_lindblad(qft(3), include_reset=True, popcount=popcount)


class TestDenseOracle:
    """The lumped model against the kron-assembled dense master equation."""

    @pytest.mark.parametrize("include_reset", [False, True])
    def test_block_rhs_matches_dense_rhs(self, include_reset):
        rng = np.random.default_rng(11)
        circuit = toffoli13()
        model = build_dqc_lindblad(circuit, include_reset=include_reset)
        jumps = dense_chain_jumps(circuit, include_reset)
        for _ in range(3):
            blocks = random_block_state(rng, model.num_nodes, 8)
            got = embed_blocks(lab_rhs(model, blocks))
            expected = dense_rhs(jumps, embed_blocks(blocks))
            assert np.abs(got - expected).max() < 1e-12

    @pytest.mark.parametrize("include_reset", [False, True])
    def test_lumped_rhs_is_the_frame_diagonal_of_the_dense_rhs(self, include_reset):
        # lift a lumped state from input 110 to its frame diagonal and on to
        # the lab frame, apply the textbook dense generator and lower the node
        # blocks of the result: its diagonal is the lift of the lumped
        # generator's output, and it holds no coherence
        rng = np.random.default_rng(13)
        circuit = toffoli13()
        model = build_dqc_lindblad(circuit, include_reset=include_reset, popcount=2)
        jumps = dense_chain_jumps(circuit, include_reset)
        n = model.num_nodes
        for _ in range(3):
            q = random_levels(rng, model)
            lab = stacked_lift(model._unitaries, diagonal_blocks(lift_levels(q, 0b110, 8)))
            dense = dense_rhs(jumps, embed_blocks(lab))
            frame = stacked_lower(model._unitaries,
                                  np.stack([node_block(dense, i, i, n) for i in range(n)]))
            got = lift_levels(lumped_rhs(model, q), 0b110, 8)
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
    """The resets' level block against their edge-table form."""

    @pytest.mark.parametrize("num_qubits", range(1, 9))
    def test_frame_rhs_is_bit_equal_to_the_edge_table_reset(self, num_qubits):
        rng = np.random.default_rng(40 + num_qubits)
        circuit = Circuit(num_qubits, ((Gate("H", (1,)),),))
        plain = build_dqc_lindblad(circuit)
        model = build_dqc_lindblad(circuit, include_reset=True)
        d = 2**num_qubits
        a = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
        blocks = a + a.conj().transpose(0, 2, 1)
        want = frame_rhs(plain, blocks)
        want[:1] += edge_table_reset(num_qubits, blocks[:1])
        got = frame_rhs(model, blocks)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("num_qubits, x", [
        (1, 0b1), (2, 0b11), (3, 0b101), (3, 0b111), (4, 0b1011), (5, 0b10110),
        (6, 0b111111), (7, 0b1111111), (8, 0b11111111), (8, 0b10110101),
    ])
    def test_the_level_block_is_the_lumped_edge_table_reset(self, num_qubits, x):
        # the resets' edge table on node 0 (one lowering coin per qubit
        # through the step kernel, the damping by the coins' Gram sum), on
        # the frame diagonal that a random lumped state stands for, gives a
        # diagonal of the same form, bit for bit: equal on the columns of a
        # level, zero off the subsets of x.  Its levels are the lumped
        # generator's, within the rounding of the two sums
        circuit = Circuit(num_qubits, ((Gate("H", (1,)),),))
        model = build_dqc_lindblad(circuit, include_reset=True, popcount=bin(x).count("1"))
        d = 2**num_qubits
        q = np.random.default_rng(x).normal(size=(2, len(model.weights)))
        p = lift_levels(q, x, d)
        reset = edge_table_reset(num_qubits, diagonal_blocks(p[:1]))
        assert not (reset - diagonal_blocks(np.einsum("nii->ni", reset))).any()
        want = path_laplacian(2) @ p
        want[:1] += np.einsum("nii->ni", reset).real
        columns = level_columns(x, len(model.weights), d)
        outside = np.setdiff1d(np.arange(d), np.concatenate(columns))
        assert not want[:, outside].any()
        for level in columns:
            assert (want[:, level] == want[:, level[:1]]).all()
        got = lift_levels(lumped_rhs(model, q), x, d)
        k = len(model.weights) - 1
        assert (np.abs(got - want) <= (k + 2) * EPS * lumped_scale(model, q, x, d)).all()

    def test_an_overflow_in_the_step_is_a_drift_error(self):
        # qft3 from 111: ±7e307 at the top level of nodes 0 and 1 keep every
        # node total finite, and 1 at node 2's level 0 makes the total 1.
        # At dt 0.7 the increment of node 0's top level, about −3.6 times
        # 7e307 less 0.2 times −7e307, overflows; the drift rule reports
        # the non-finite total at that step, with no warning
        model = build_dqc_lindblad(qft(3), include_reset=True, popcount=3)
        q = np.zeros((model.num_nodes, 4))
        q[0, 3], q[1, 3], q[2, 0] = 7e307, -7e307, 1.0
        assert q.sum(axis=0) @ model.weights == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match=(
                    r"^RK4 diverged at step 1: total trace drifted to (nan|-?inf) "
                    r"\(dt = 0\.7\)$")):
                integrate(model, q, dt=0.7, max_time=1.0)


#: The step at which ``frame_rk4``'s total first drifts past TOL.trace in 40
#: steps, and the step at which ``integrate`` raises, from all ones or a
#: random lumped start: only qft4 with reset at dt 0.65, above its limit.
#: The other reset cases at 0.65 stay within TOL.trace.
DRIFT_STEPS = {("qft4", True, "basis", 0.65): (13, 13),
               ("qft4", True, "random", 0.65): (19, 20)}


class TestDiagonal:
    """The lumped chain against the complex frame engine of
    ``tests/dense_lindblad.py`` on the whole diagonal it stands for."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_CIRCUITS))
    @pytest.mark.parametrize("include_reset", [False, True])
    def test_frame_rhs_keeps_a_lumped_diagonal_lumped_and_real(self, name, include_reset):
        # the Laplacian acts entry by entry, a reset moves a diagonal entry to
        # a diagonal entry and the damping is diagonal: the coherence stays
        # exactly zero, and the diagonal is the lift of the lumped generator's
        # output, within the rounding of its sums
        model, x = ones_model(BUILTIN_CIRCUITS[name](), include_reset)
        d = x + 1
        q = random_levels(np.random.default_rng(60), model)
        out = frame_rhs(model, diagonal_blocks(lift_levels(q, x, d)))
        diagonal = np.einsum("nii->ni", out).real
        assert out.tobytes() == diagonal_blocks(diagonal).tobytes()
        got = lift_levels(lumped_rhs(model, q), x, d)
        k = len(model.weights) - 1
        assert (np.abs(got - diagonal) <= (k + 2) * EPS * lumped_scale(model, q, x, d)).all()

    @pytest.mark.parametrize("name", sorted(BUILTIN_CIRCUITS))
    @pytest.mark.parametrize("include_reset", [False, True])
    @pytest.mark.parametrize("start", ["basis", "random"])
    def test_samples_are_the_complex_frame_loop_within_rounding(self, name, include_reset,
                                                                 start):
        # integrate's samples, one per step, against the traces of the
        # complex frame blocks that ``frame_rk4`` steps and Hermitizes from
        # the lifted start, within ROUNDING of the largest ‖p‖₁ of the loop
        # so far.  dt = 0.65 is above the stability limit of the reset runs
        # from all ones, so their rounding grows and ‖p‖₁ with it: where the
        # loop's total or integrate's first drifts past TOL.trace, the two
        # are compared up to the step before
        model, x = ones_model(BUILTIN_CIRCUITS[name](), include_reset)
        q0 = (model.start if start == "basis"
              else random_levels(np.random.default_rng(61), model))
        frame0 = diagonal_blocks(lift_levels(q0, x, x + 1))
        for dt in (0.25, 0.65):
            frames = list(frame_rk4(model, frame0, dt, 40))
            first = next((n for n, rho in enumerate(frames, start=1)
                          if abs(np.einsum("nii->", rho).real - 1.0) > TOL.trace), None)
            loop_step, own_step = DRIFT_STEPS.get((name, include_reset, start, dt),
                                                  (None, None))
            assert first == loop_step
            steps = 40
            if own_step:
                steps = min(loop_step, own_step) - 1
                with pytest.raises(ArithmeticError, match=(
                        rf"^RK4 diverged at step {own_step}: total trace drifted to ")):
                    integrate(model, q0, dt=dt, stop_tol=1e-300, max_time=40 * dt)
            # half a step short of ``steps``, so that ceil(max_time/dt) is
            # ``steps`` however steps·dt rounds
            result = integrate(model, q0, dt=dt, stop_tol=1e-300,
                               max_time=(steps - 0.5) * dt, observe_every=dt)
            assert result.steps == steps
            l1 = 1.0
            for (_t, marginals), rho in zip(result.samples[1:], frames[:steps], strict=True):
                l1 = max(l1, np.abs(np.einsum("nii->ni", rho).real).sum())
                gap = np.abs(marginals - np.einsum("nii->n", rho).real).max()
                assert gap <= ROUNDING * l1, (dt, gap / EPS, l1)


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
        # the input is the (T+1, k+1) lumped state: (N, d) diagonals, a wrong
        # level count, a total off 1 by more than TOL.trace, as ``walk`` asks
        # of a block state, and NaN are refused
        model = build_dqc_lindblad(single_gate_circuit())
        with pytest.raises(ShapeError, match=r"lumped state of shape \(2, 1\)"):
            integrate(model, np.full((2, 2), 0.25))
        with pytest.raises(ShapeError):
            integrate(model, np.full((2, 1, 1), 0.5))
        with pytest.raises(DomainError, match="unit total within 1e-10"):
            integrate(model, np.ones((2, 1)))
        near = np.array([[1.0 + 0.5 * TOL.trace], [0.0]])
        assert integrate(model, near, max_time=1.0).steps == 100
        for past in (1.0 + 2 * TOL.trace, 1.0 - 2 * TOL.trace):
            with pytest.raises(DomainError, match="unit total within 1e-10"):
                integrate(model, np.array([[past], [0.0]]))
        nan = np.full((2, 1), 0.5)
        nan[1, 0] = np.nan
        with pytest.raises(DomainError, match="NaN or Inf"):
            integrate(model, nan)

    def test_the_total_counts_each_level_by_its_columns(self):
        # from 110 with resets, the levels stand for 1, 2 and 1 columns
        reset = build_dqc_lindblad(qft(3), include_reset=True, popcount=2)
        q = np.zeros((reset.num_nodes, 3))
        q[0, 1] = 0.5
        assert integrate(reset, q, max_time=0.1).steps == 10
        q[0, 1] = 1.0
        with pytest.raises(DomainError, match="unit total"):
            integrate(reset, q)


class TestIntegrate:
    def test_single_gate_relaxes_to_uniform_registers(self):
        model = build_dqc_lindblad(single_gate_circuit())
        result = integrate(model, model.start, dt=0.01, stop_tol=1e-9,
                           max_time=50.0)
        assert result.stationary
        assert np.abs(result.samples[-1][1] - 0.5).max() < 1e-6

    def test_stationary_start_takes_no_step(self):
        # the uniform mixture of the partial computations is, in the frame,
        # the input's column at 1/N on every register: one level at 1/2
        model = build_dqc_lindblad(single_gate_circuit())
        p0 = frame_diagonal(model._unitaries, chain_mixture([H], basis_state(1, "0"), 2))
        q0 = np.full((2, 1), 0.5)
        assert np.abs(lift_levels(q0, 0, 2) - p0).max() < 1e-15
        result = integrate(model, q0, dt=0.1, stop_tol=1e-12, max_time=5.0)
        assert result.stationary
        assert result.steps == 0
        assert result.time == 0.0 and len(result.samples) == 1
        assert np.abs(result.samples[0][1] - 0.5).max() < 1e-15

    def test_trajectory_stays_physical(self):
        model = build_dqc_lindblad(single_gate_circuit())
        result = integrate(
            model, model.start, dt=0.01, stop_tol=1e-9, max_time=30.0,
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
        # the state at register 1 is W_1|1⟩ = H|1⟩, so its frame block is
        # |1⟩⟨1|, the one column of a lumped state at register 1
        model = build_dqc_lindblad(single_gate_circuit())
        final = []
        for psi, node, x in [(basis_state(1, "0"), 0, 0), (H @ basis_state(1, "1"), 1, 1)]:
            rho0 = BlockState.pure(model.num_nodes, 2, node, psi).blocks
            q0 = np.eye(2)[:, node : node + 1]
            assert np.abs(frame_diagonal(model._unitaries, rho0)
                          - lift_levels(q0, x, 2)).max() < 1e-15
            res = integrate(model, q0, dt=0.02, stop_tol=1e-10, max_time=100.0)
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
            integrate(model, np.full((2, 1), 0.5), dt=0.0)

    def test_step_count_is_bounded(self):
        model = build_dqc_lindblad(single_gate_circuit())
        q0 = np.full((2, 1), 0.5)
        # exactly the bound is planned, and the stationary start stops at once
        assert integrate(model, q0, dt=1.0, max_time=MAX_RK4_STEPS).steps == 0
        with pytest.raises(DomainError, match="max_time/dt"):
            integrate(model, q0, dt=1.0, max_time=MAX_RK4_STEPS + 0.5)

    def test_peak_memory_is_below_one_input_stack(self):
        # 7 qubits × 16 slices with resets from 1111110, compiled before
        # tracing: the lumped state is 17 × 7 = 119 floats, where a lab-frame
        # input stack of (17, 128, 128) complex blocks was 4.3 MiB.  The run
        # builds the 119-square increment matrix in np.longdouble, 221 KiB,
        # each product gathering its operand's rows at the nonzeros of the
        # generator, up to three per row, and then holds it in float64
        # above the weighted generator, so its peak is a few longdouble
        # matrices (measured: 9.5), far below one stack
        circuit = seeded_circuit(112, 7, 16)
        circuit_unitaries(circuit)
        model = build_dqc_lindblad(circuit, include_reset=True, popcount=6)
        q0 = model.start
        tracemalloc.start()
        try:
            result = integrate(model, q0, dt=0.1, stop_tol=1e-300, max_time=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        longdouble = q0.size**2 * np.dtype(np.longdouble).itemsize
        assert result.steps == 10
        assert peak <= 12 * longdouble, peak / longdouble
        assert 12 * longdouble < model.num_nodes * 128**2 * 16

    @pytest.mark.parametrize("dt, detail", [
        (3.0, r"total trace drifted to \S+ \(dt = 3\)"),
        (1e300, r"total trace drifted to nan \(dt = 1e\+300\)"),
    ])
    def test_divergence_names_the_step_and_dt(self, dt, detail):
        # the path Laplacian of two registers reaches −2: RK4 is stable up
        # to dt ≈ 1.39, so both step sizes grow the state.  At dt = 3 the
        # mode of eigenvalue −2 grows 31-fold a step, and its rounding moves
        # the conserved total within a few dozen steps; at 1e300 the
        # increment matrix overflows, and the first step's total is nan
        model = build_dqc_lindblad(single_gate_circuit())
        with pytest.raises(ArithmeticError, match=r"^RK4 diverged at step \d+: ") as info:
            integrate(model, model.start, dt=dt, max_time=100 * dt)
        assert type(info.value) is ArithmeticError
        assert re.search(detail + "$", str(info.value)), str(info.value)

    def test_a_node_total_that_overflows_is_refused_at_t0(self):
        # qft3 from 111: every entry is finite and the total, summed level by
        # level, is 1, so the input checks pass, but node 0's total weighs
        # its level-1 entry 7e307 by its 3 columns and overflows: the t = 0
        # sample is refused, with no warning
        model = build_dqc_lindblad(qft(3), include_reset=True, popcount=3)
        q0 = np.zeros((model.num_nodes, 4))
        q0[0, 1], q0[1, 1], q0[2, 0] = 7e307, -7e307, 1.0
        assert q0.sum(axis=0) @ model.weights == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^q0 has a node total that is not finite$"):
                integrate(model, q0)

    def test_matches_balanced_walk_marginals(self):
        # continuous-time stationary registers are uniform, exactly what the
        # discrete walk gives at omega = 1/2: the two models tie together
        from dense_chain import keyed_chain
        from oqwalk.walk import ChainParams, run_until_converged

        model = build_dqc_lindblad(single_gate_circuit())
        rho0 = start_state(model.num_nodes, "0")
        res = integrate(model, model.start, dt=0.01, stop_tol=1e-9, max_time=50.0)
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


#: How far RK4's stability interval reaches along the negative real axis:
#: −z for the real root z ≈ −2.785 of R(z) − 1 = z(1 + z/2 + z²/6 + z³/24).
RK4_EDGE = -min(r.real for r in np.roots([1 / 24, 1 / 6, 1 / 2, 1]) if abs(r.imag) < 1e-12)


def rk4_limit(num_nodes, popcount):
    """The largest stable ``dt`` from an input of this popcount at node 0
    with resets (0 without): the lumped generator is block triangular in
    the levels, with diagonal blocks L_T − j·E₀₀ for j = 0..k, and j = k
    has the largest spectral radius."""
    block = path_laplacian(num_nodes)
    block[0, 0] -= popcount
    return RK4_EDGE / -np.linalg.eigvalsh(block)[0]


#: Circuits of the marginal oracle: the built-ins, and seeded files of 5-8
#: and 12 qubits, with their depth.
MARGINAL_CASES = [*sorted(BUILTIN_CIRCUITS), "5x12", "6x10", "7x8", "8x4", "12x4", "12x16"]


class TestMarginalOracle:
    """The resets conserve node 0's total, so the node totals of the lumped
    chain follow RK4 of the path Laplacian alone: in exact arithmetic the
    samples are RK4(L_T)·e₀ for every width, input and reset flag.  They
    stay within ROUNDING·(1 + ‖p‖₁) of the four-stage loop ``path_rk4``,
    the 1 for that loop's own rounding: up to 8 qubits ‖p‖₁ ≤ 24, so within
    50ε (measured at most 15.3ε); from 12 set bits ‖p‖₁ reaches 121, where
    the gap reaches 84ε (the (T+1)·2^q diagonal this chain replaced
    measured 176ε there).  No rescale enters either side.  The model reads
    only the slice count of the compile, which is stubbed."""

    @pytest.mark.parametrize("name", MARGINAL_CASES)
    def test_samples_are_rk4_of_the_path_laplacian_from_node_zero(self, name, monkeypatch):
        monkeypatch.setattr(lindblad, "circuit_unitaries",
                            lambda circuit: [None] * circuit.depth)
        if name in BUILTIN_CIRCUITS:
            circuit = BUILTIN_CIRCUITS[name]()
        else:
            qubits, depth = map(int, name.split("x"))
            circuit = seeded_circuit(qubits * depth, qubits, depth)
        q = circuit.num_qubits
        steps = 120
        for include_reset in (False, True):
            for x in (0, 1 << (q - 1), 2**q - 1):  # zero, one-hot and all-ones
                model = build_dqc_lindblad(circuit, include_reset, bin(x).count("1"))
                k = len(model.weights) - 1
                dt = 0.9 * rk4_limit(model.num_nodes, k)
                result = integrate(model, model.start, dt=dt, stop_tol=1e-300,
                                   max_time=(steps - 0.5) * dt, observe_every=dt)
                assert result.steps == steps
                got = np.array([marginals for _t, marginals in result.samples])
                gap = np.abs(got - path_rk4(model.num_nodes, dt, steps)).max()
                l1 = lumped_l1(model.num_nodes, k, dt, steps)
                assert gap <= ROUNDING * (1 + l1), (include_reset, x, dt, gap / EPS, l1)
                if q <= 8:
                    assert l1 <= 24.0, l1


def spectral_rk4(num_nodes, dt, steps):
    """RK4(L_T)^n·e₀ for each n in ``steps``, in closed form and in
    np.longdouble: Σ_k c_k R(dt·λ_k)^n v_k, with R(z) = 1 + z + z²/2 + z³/6 +
    z⁴/24, the eigenvalues λ_k = −(2 − 2cos(πk/N)) of the path Laplacian on
    N = T+1 nodes and its DCT-II eigenvectors v_k[m] = cos(πk(m + ½)/N)
    (Strang, "The discrete cosine transform", SIAM Review 1999), and
    c_k = v_k[0]/‖v_k‖² the coefficients of e₀."""
    ld = np.longdouble
    pi = np.arccos(ld(-1))
    k = np.arange(num_nodes, dtype=ld)
    v = np.cos(pi * k[:, None] * (k[None, :] + ld(0.5)) / num_nodes)
    z = ld(dt) * -(2 - 2 * np.cos(pi * k / num_nodes))
    r = 1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))
    c = v[:, 0] / (v * v).sum(axis=1)
    return np.array([(c * r ** ld(n)) @ v for n in steps])


#: How far the samples may lie from the closed form at the defaults.
#: Measured: at most 5.9ε, on qft4 without resets.  A run forced on past
#: stationarity lets the rounding of the conserved total random-walk: on
#: qft3 after 50 000 steps it reaches 41ε, as it did (40ε) with the four
#: RK4 stages on the (T+1)·2^q diagonal.
SPECTRAL_TOL = 16 * EPS


def chain_circuit(depth):
    """One qubit, one H per slice: the chain of T = ``depth``."""
    return Circuit(1, tuple((Gate("H", (1,)),) for _ in range(depth)))


class TestSpectralOracle:
    """The samples against the exact RK4 iterates of L_T."""

    def test_the_closed_form_is_the_rk4_loop(self):
        # the DCT-II vectors are eigenvectors of L_T, and the closed form
        # is the four-stage loop of ``path_rk4`` to its rounding
        lap = path_laplacian(14)
        pi = np.pi
        for k in range(14):
            v = np.cos(pi * k * (np.arange(14) + 0.5) / 14)
            assert np.abs(lap @ v + (2 - 2 * np.cos(pi * k / 14)) * v).max() < 1e-13
        closed = spectral_rk4(14, 0.4, range(51)).astype(np.float64)
        assert np.abs(closed - path_rk4(14, 0.4, 50)).max() <= 4 * EPS

    @pytest.mark.parametrize("name", [*sorted(BUILTIN_CIRCUITS), "T=96"])
    @pytest.mark.parametrize("include_reset", [False, True])
    def test_samples_at_the_defaults_are_exact_rk4(self, name, include_reset):
        # from all ones, at the defaults (dt 0.01, stop 1e-8, 500 time units:
        # 50 000 planned steps).  The plain runs stop once stationary, from
        # 15 610 steps on qft3 to 41 014 on qft4; the reset runs take all
        # 50 000 (their norm decays at the reset gap) and so does T = 96
        circuit = chain_circuit(96) if name == "T=96" else BUILTIN_CIRCUITS[name]()
        model, _ = ones_model(circuit, include_reset)
        result = integrate(model, model.start)
        assert result.steps == 50_000 or not include_reset and result.stationary
        steps = [round(t / 0.01) for t, _ in result.samples]
        got = np.array([marginals for _t, marginals in result.samples])
        gap = np.abs(got - spectral_rk4(model.num_nodes, 0.01, steps)).max()
        assert gap <= SPECTRAL_TOL, gap / EPS


def marginal_gap(big_t):
    """The smallest nonzero rate of L_T: how fast the marginals relax."""
    return 2 - 2 * np.cos(np.pi / (big_t + 1))


def reset_gap(big_t):
    """The smallest rate of L_T − E₀₀, the popcount-1 block."""
    return 2 - 2 * np.cos(np.pi / (2 * big_t + 3))


class TestStopRate:
    """What ``stationary`` judges: ‖rhs‖_F over the whole frame diagonal,
    not the marginals.  The lumped generator is block triangular in the
    levels, with blocks L_T − j·E₀₀ for j = 0..k, and its slowest nonzero
    mode sets the rate: the marginal gap from 000, where no reset acts, and
    the popcount-1 block's from any input a reset acts on, under a quarter
    of the marginal gap."""

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
        model = build_dqc_lindblad(qft(3), include_reset, bits.count("1"))
        norms = [integrate(model, model.start, dt=0.5, stop_tol=1e-300,
                           max_time=t).rhs_norm
                 for t in (t1, t2)]
        rate = np.log(norms[0] / norms[1]) / (t2 - t1)
        assert abs(rate / gap(model.num_nodes - 1) - 1.0) <= bound, rate

    @pytest.mark.parametrize("bits", ["110", "111"])
    def test_rhs_norm_is_that_of_the_whole_frame_diagonal(self, bits):
        # ‖rhs‖_F of the lumped run against the Frobenius norm of the
        # complex frame generator on the diagonal it stands for
        model = build_dqc_lindblad(qft(3), True, bits.count("1"))
        q0 = random_levels(np.random.default_rng(7), model)
        result = integrate(model, q0, dt=0.5, stop_tol=1e-300, max_time=0.25)
        assert result.steps == 1
        frame = next(frame_rk4(model, diagonal_blocks(lift_levels(q0, int(bits, 2), 8)),
                               0.5, 1))
        want = np.linalg.norm(frame_rhs(model, frame))
        assert result.rhs_norm == pytest.approx(want, rel=1e-13)


class TestIntegrateOracles:
    """``integrate`` against models written without the frame."""

    @pytest.mark.parametrize("include_reset", [False, True])
    def test_matches_a_dense_rk4_loop(self, include_reset):
        # the samples at steps 0, 2, 4 and 5 against the traces of the node
        # blocks of the textbook dense RK4 on the full lab-frame state, from a
        # random lumped state from input 110, lifted to the lab frame
        rng = np.random.default_rng(31)
        circuit = toffoli13()
        model = build_dqc_lindblad(circuit, include_reset=include_reset, popcount=2)
        q0 = random_levels(rng, model)
        blocks = stacked_lift(model._unitaries, diagonal_blocks(lift_levels(q0, 0b110, 8)))
        result = integrate(model, q0, dt=0.4, stop_tol=1e-300, max_time=2.0,
                           observe_every=0.8)
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
        result = integrate(model, model.start, dt=0.4, stop_tol=2e-6,
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
    frames, _ = stacked_frames(model._unitaries)
    d = frames.shape[1]
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
        # traces the samples are within ROUNDING (TestDiagonal); below the
        # limit its diagonal stays non-negative, so ‖p‖₁ = 1
        model, x = ones_model(BUILTIN_CIRCUITS[name](), include_reset)
        q0 = (model.start if start == "basis"
              else random_levels(np.random.default_rng(50), model))
        frame0 = diagonal_blocks(lift_levels(q0, x, x + 1))
        samples = integrate(model, q0, dt=0.25, stop_tol=1e-300, max_time=2.0,
                            observe_every=0.25).samples
        assert len(samples) == 9
        frames = [frame0, *frame_rk4(model, frame0, 0.25, 8)]
        for k, ((_t, marginals), frame) in enumerate(zip(samples, frames, strict=True)):
            lifted = stacked_lift(model._unitaries, frame)
            gap = np.abs(marginals - np.einsum("nii->n", lifted).real)
            bound = lift_rounding_bound(model, lifted) + ROUNDING
            assert (gap <= bound).all(), (k, gap.max())


FRAME_CASES = [*sorted(BUILTIN_CIRCUITS), "w5.circ", "4x16", "5x12", "6x10", "7x8"]


class TestFrames:
    """The input is the lumped frame diagonal: the CLI builds it without a
    frame, and ``integrate`` neither lowers it nor reads a frame."""

    @pytest.mark.parametrize("name", FRAME_CASES)
    @pytest.mark.parametrize("include_reset", [False, True])
    def test_the_start_is_the_lumped_frame_diagonal_of_the_input(self, name, include_reset,
                                                                 tmp_path, monkeypatch):
        # the lumped state that ``oqw lindblad`` passes stands for the bits
        # of the diagonal of its lab-frame basis state at register 0, lowered
        # by the batched products with the whole (T+1, d, d) stack of frames,
        # on a model of the input's popcount with resets and of one level
        # without
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

        def spy(model, q0, **kwargs):
            seen.append((model, q0))
            return run(model, q0, **kwargs)

        monkeypatch.setattr(lindblad, "integrate", spy)
        argv = ["lindblad", "--circuit", arg, "--input", bits, "--dt", "0.1",
                "--max-time", "0.1", "--out", str(tmp_path / "out.csv")]
        assert main(argv + ["--include-reset"] * include_reset) in (0, 1)
        [(model, q0)] = seen
        assert q0 is model.start
        assert len(model.weights) == (bits.count("1") + 1 if include_reset else 1)
        want = frame_diagonal(circuit_unitaries(circuit), start_state(model.num_nodes, bits))
        got = lift_levels(q0, x, dim)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("filled", [(0,), (0, 4), (3,), (2, 5, 9)])
    def test_zero_blocks_stay_zero_and_no_frame_is_built(self, filled):
        # qft3 from 110 with resets has 10 nodes; integrate never reads the
        # slices, so no frame is built at all, and from a lumped state whose
        # only non-zero rows are ``filled`` its t = 0 sample has exact zeros
        # on the empty nodes, and its samples are the traces of the complex
        # frame loop within ROUNDING
        model = build_dqc_lindblad(qft(3), include_reset=True, popcount=2)
        q = random_levels(np.random.default_rng(80), model)
        empty = [t for t in range(model.num_nodes) if t not in filled]
        q[empty] = 0.0
        q /= q.sum(axis=0) @ model.weights
        frames = list(frame_rk4(model, diagonal_blocks(lift_levels(q, 0b110, 8)), 0.25, 4))
        model._unitaries = None
        result = integrate(model, q, dt=0.25, stop_tol=1e-300, max_time=1.0,
                           observe_every=0.25)
        first = result.samples[0][1]
        assert not first[empty].any()
        assert first.tobytes() == node_marginals(q, model.weights).tobytes()
        assert len(result.samples) == 5
        for (_t, marginals), rho in zip(result.samples[1:], frames, strict=True):
            assert np.abs(marginals - np.einsum("nii->n", rho).real).max() <= ROUNDING

    def test_a_block_past_a_zero_block_is_still_checked(self):
        # node 1 is empty, node 2 holds a NaN or the excess of the total
        model = build_dqc_lindblad(qft(3), include_reset=True, popcount=1)
        q = np.zeros((model.num_nodes, 2))
        q[0, 0] = q[2, 1] = 0.5
        cases = [(np.nan, "NaN or Inf"), (np.inf, "NaN or Inf"), (1.0, "unit total")]
        for bad, match in cases:
            bad_q = q.copy()
            bad_q[2, 0] = bad
            with pytest.raises(DomainError, match=match):
                integrate(model, bad_q)


class TestNodeMarginals:
    def test_level_sums_weighted_by_their_columns(self):
        # from 11 with resets: level 1 stands for two columns, so 0.5 there
        # at node 2 of three nodes is the whole population
        q = np.zeros((3, 3))
        q[2, 1] = 0.5
        assert np.array_equal(node_marginals(q, np.array([1.0, 2.0, 1.0])), [0.0, 0.0, 1.0])

    def test_one_level_is_the_marginals_bit_for_bit(self):
        # without resets the one level is the node populations themselves
        q = np.random.default_rng(70).random((5, 1))
        assert node_marginals(q, np.ones(1)).tobytes() == q[:, 0].tobytes()

    def test_shape_guard(self):
        # a lumped state is 2-D and a stack of them 3-D; a flat vector or a
        # stack of stacks is neither
        with pytest.raises(ShapeError):
            node_marginals(np.zeros((2, 3, 2, 2)), np.ones(2))
        with pytest.raises(ShapeError):
            node_marginals(np.ones(6), np.ones(1))

    def test_a_stack_is_each_state_bit_for_bit(self):
        # 11 levels, past the 8 from which a 2-D product over stacked rows
        # rounds them otherwise
        rng = np.random.default_rng(71)
        q = rng.random((8, 5, 11))
        weights = np.array([float(math.comb(10, j)) for j in range(11)])
        stacked = node_marginals(q, weights)
        assert stacked.shape == (8, 5)
        for got, state in zip(stacked, q):
            assert got.tobytes() == node_marginals(state, weights).tobytes()
