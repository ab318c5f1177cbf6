"""run_chain, the population engine of chain walks, against
run_until_converged on the dense chain walk.

``run_chain`` returns the populations only; the tests lift them to the lab
frame with ``dense_chain.history_state`` and compare those blocks with the
dense chain's."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from dense_chain import conditional_state, dense_chain, history_state, keyed_chain
from oqwalk.circuits import BUILTIN_CIRCUITS, Circuit, Gate, circuit_product
from oqwalk.errors import DomainError, ShapeError
from oqwalk.walk import (
    BlockState,
    ChainParams,
    ChainWalk,
    build_dqc_chain,
    run_chain,
    run_until_converged,
)
from test_circuits import random_slice

GRID = [round(0.5 + 0.05 * k, 12) for k in range(10)] + [1.0]
EPS = np.finfo(np.float64).eps


def random_state(seed, dim):
    """An unnormalized random complex vector; both engines normalize it."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


def fidelity_at_last_node(report, target):
    """Overlap of the last node's normalized block with target."""
    rho = conditional_state(report.final_state, report.final_state.num_nodes - 1)
    return float((target.conj() @ rho @ target).real)


def both_runs(circuit, omega, psi0, tol, max_steps=100_000):
    params = ChainParams(omega)
    dense = dense_chain(circuit, params)
    init = BlockState.pure(dense.num_nodes, dense.dim, 0, psi0)
    full = run_until_converged(dense, init, tol=tol, max_steps=max_steps)
    chain = build_dqc_chain(circuit, params)
    report = run_chain(chain, tol=tol, max_steps=max_steps)
    # its final state is the (T+1, 1, 1) population state, lifted here
    assert np.array_equal(report.final_state.blocks[:, 0, 0], report.history[-1])
    lifted = history_state(chain.unitaries, psi0, report.history[-1])
    frame = replace(report, final_state=lifted)
    target = circuit_product(circuit) @ (psi0 / np.linalg.norm(psi0))
    return frame, full, target


def assert_histories_agree(frame, full, rows):
    """The first ``rows`` history rows agree within their rounding bound.

    Both engines apply the same trace-preserving step, which contracts the
    summed trace norm of a difference, so an error made at one step is never
    amplified by later ones: after n steps the two histories differ by at
    most the sum of the n steps' rounding.  A step of the full engine rounds
    each entry of B ρ B† once per term of its d-term sums, which moves the
    populations, in sum, by O(d·ε); the 1×1 engine's step, the node sums
    and the trace readout add a few ε.  Row n is therefore held to
    4·d·ε·(n + 1); over 1500 random cases of the property below the largest
    difference was a quarter of that for d = 2 and less for larger d.
    """
    dim = full.final_state.dim
    bound = 4 * dim * EPS * np.arange(1, rows + 1)
    diff = np.abs(frame.history[:rows] - full.history[:rows]).max(axis=1)
    assert (diff <= bound).all(), (diff / bound).max()


def assert_same(frame, full, target):
    assert (frame.steps, frame.converged) == (full.steps, full.converged)
    assert frame.history.shape == full.history.shape
    assert_histories_agree(frame, full, len(full.history))
    assert frame.final_detection == frame.history[-1, -1]
    assert np.abs(frame.final_state.blocks - full.final_state.blocks).max() <= 1e-13
    assert abs(fidelity_at_last_node(frame, target) - 1.0) <= 1e-12


@pytest.mark.parametrize("tol", [1e-5, 1e-7, 1e-12])
@pytest.mark.parametrize("name", sorted(BUILTIN_CIRCUITS))
def test_matches_the_full_chain_on_every_builtin_over_the_grid(name, tol):
    circuit = BUILTIN_CIRCUITS[name]()
    psi0 = random_state(7, 2**circuit.num_qubits)
    for omega in GRID:
        frame, full, target = both_runs(circuit, omega, psi0, tol)
        assert frame.converged
        assert_same(frame, full, target)


@pytest.mark.parametrize("name", sorted(BUILTIN_CIRCUITS))
def test_unit_omega_sweeps_forward_in_t_plus_one_steps(name):
    circuit = BUILTIN_CIRCUITS[name]()
    psi0 = random_state(3, 2**circuit.num_qubits)
    frame, full, target = both_runs(circuit, 1.0, psi0, 1e-7)
    assert frame.steps == circuit.depth + 1
    assert frame.final_detection == 1.0
    assert_same(frame, full, target)


def test_exhausting_max_steps_is_reported_like_the_full_chain():
    circuit = BUILTIN_CIRCUITS["toffoli"]()
    frame, full, target = both_runs(circuit, 0.5, random_state(5, 8), 1e-7, max_steps=20)
    assert (frame.steps, frame.converged) == (20, False)
    assert_same(frame, full, target)


def test_final_state_is_the_lifted_history_state():
    # run_chain's final state is the populations; lifted, it is p_t·v_t v_t†
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    chain = ChainWalk([u], ChainParams(0.8))
    report = run_chain(chain, tol=1e-10)
    p0, p1 = report.history[-1]
    assert p1 == pytest.approx(0.8)  # ω/(ω + λ) at the last node
    assert np.array_equal(report.final_state.blocks, [[[p0]], [[p1]]])
    lifted = history_state(chain.unitaries, [2.0, 0.0], report.history[-1])
    lifted = replace(report, final_state=lifted)
    expected = np.array([np.diag([p0, 0.0]), np.diag([0.0, p1])])
    assert np.abs(lifted.final_state.blocks - expected).max() <= 1e-15
    fidelity = fidelity_at_last_node(lifted, np.array([0.0, 1.0]))
    assert fidelity == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("omega", [0.5, 0.9, 1.0])
def test_populations_are_those_of_the_dense_one_by_one_chain(omega):
    # the population walk is the dense chain of T 1×1 identities, bit for bit
    params = ChainParams(omega)
    report = run_chain(build_dqc_chain(BUILTIN_CIRCUITS["qft3"](), params))
    ones = keyed_chain([np.ones((1, 1))] * 9, params)
    full = run_until_converged(ones, BlockState.pure(10, 1, 0, [1.0]))
    assert (report.steps, report.converged) == (full.steps, full.converged)
    assert report.history.tobytes() == full.history.tobytes()


@pytest.mark.parametrize("psi0, error", [([1.0, 0.0], ShapeError), (np.zeros(8), DomainError)])
def test_rejects_a_bad_input_state(psi0, error):
    # a run takes no input state; the start block of a qft3 chain checks it
    with pytest.raises(error):
        BlockState.pure(10, 8, 0, psi0)


@st.composite
def chain_case(draw):
    n = draw(st.integers(1, 4))
    slices = draw(st.lists(random_slice(n), min_size=1, max_size=12))
    omega = draw(st.floats(0.5, 1.0, exclude_min=True))
    tol = draw(st.sampled_from([1e-5, 1e-7]))
    return Circuit(n, tuple(slices)), omega, tol, draw(st.integers(0, 2**32 - 1))


#: Its histories differ by 1.03e-14 at step 146 of 146 (d = 4), above a flat
#: 1e-14 and far below the bound of ``assert_histories_agree``, 5.2e-13.
EIGHT_HADAMARDS_THEN_TWO = Circuit(
    2, ((Gate("H", (1,)),),) * 8 + ((Gate("H", (1,)), Gate("H", (2,))),)
)


@settings(max_examples=100, deadline=None)
@given(chain_case())
@example((EIGHT_HADAMARDS_THEN_TWO, 0.625, 1e-5, 0))
def test_matches_the_full_chain_on_random_circuits(case):
    circuit, omega, tol, seed = case
    dim = 2**circuit.num_qubits
    frame, full, target = both_runs(circuit, omega, random_state(seed, dim), tol)
    # The two engines compute each step's distance with different rounding,
    # so a step whose population change lies within 64dε of tol is a tie:
    # either engine may stop there.  Ties are reported, not filtered out.
    moved = np.abs(np.diff(full.history, axis=0)).sum(axis=1)
    ties = np.flatnonzero(np.abs(moved - tol) <= 64 * dim * EPS) + 1
    if ties.size:
        event(f"rounding tie with tol at step {ties[0]}")
        steps = min(frame.steps, full.steps)
        assert abs(frame.steps - full.steps) <= 1 and steps >= ties[0]
        assert_histories_agree(frame, full, steps + 1)
        return
    assert_same(frame, full, target)
