"""``lindblad.integrate``, which checks its RK4 steps once per block,
against ``dense_lindblad.stepwise_integrate``, which checks them after
every step: the same samples, step count, stop flag, ‖rhs‖_F and drift
error, bit for bit."""

import math

import numpy as np
import pytest

from dense_chain import seeded_circuit
from dense_lindblad import stepwise_integrate
from oqwalk import walk
from oqwalk.circuits import BUILTIN_CIRCUITS, Circuit, Gate
from oqwalk.linalg import frobenius
from oqwalk.lindblad import build_dqc_lindblad, integrate

#: Steps per block of the engines.
B = walk._BLOCK_STEPS


def outcome(engine, model, q0, **options):
    """An engine's result, or the text of its drift error."""
    try:
        return engine(model, q0, **options)
    except ArithmeticError as exc:
        return str(exc)


def assert_same_run(model, q0=None, **options):
    """The block loop against the step-by-step loop; the oracle's outcome."""
    q0 = model.start if q0 is None else q0
    block = outcome(integrate, model, q0, **options)
    oracle = outcome(stepwise_integrate, model, q0, **options)
    if isinstance(oracle, str):
        assert block == oracle
        return oracle
    assert type(block.stationary) is bool
    assert (block.steps, block.time, block.stationary) == (
        oracle.steps, oracle.time, oracle.stationary)
    assert block.rhs_norm == oracle.rhs_norm
    assert [t for t, _ in block.samples] == [t for t, _ in oracle.samples]
    assert all(type(t) is float for t, _ in block.samples)
    for (_, got), (_, want) in zip(block.samples, oracle.samples):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    return oracle


def builtin(name):
    return BUILTIN_CIRCUITS[name]()


@pytest.mark.parametrize("name, include_reset, popcount", [
    (name, include_reset, popcount)
    for name, width in (("toffoli", 3), ("qft3", 3), ("qft4", 4))
    for include_reset, popcounts in ((False, [0]), (True, range(width + 1)))
    for popcount in popcounts
])
def test_builtins_at_the_defaults(name, include_reset, popcount):
    # without resets, or from popcount 0, the run stops; from popcount ≥ 1
    # with resets, ‖rhs‖_F decays at the reset rate and runs every step
    model = build_dqc_lindblad(builtin(name), include_reset, popcount)
    oracle = assert_same_run(model)
    assert oracle.stationary == (not include_reset or popcount == 0)
    assert oracle.steps == 50_000 or oracle.stationary


def test_a_stationary_start_takes_no_step():
    # one H slice: both registers at 1/2 is the stationary state
    model = build_dqc_lindblad(Circuit(1, ((Gate("H", (1,)),),), name="h1"))
    oracle = assert_same_run(model, np.full((2, 1), 0.5), dt=0.1, stop_tol=1e-12,
                             max_time=5.0)
    assert (oracle.steps, oracle.stationary, len(oracle.samples)) == (0, True, 1)


@pytest.mark.parametrize("steps", [B - 1, B, B + 1])
def test_runs_that_end_at_a_block_boundary(steps):
    # dt = 0.25 samples every 4 steps, so 63 and 65 end off the stride
    model = build_dqc_lindblad(builtin("toffoli"), True, 2)
    oracle = assert_same_run(model, dt=0.25, max_time=steps * 0.25)
    assert (oracle.steps, oracle.stationary) == (steps, False)
    # and stopped by the norm on that step: the stop tolerance just above it
    stop_tol = float(np.nextafter(oracle.rhs_norm, np.inf))
    oracle = assert_same_run(model, dt=0.25, stop_tol=stop_tol, max_time=100.0)
    assert (oracle.steps, oracle.stationary) == (steps, True)


def test_a_final_sample_off_the_stride():
    # observe_every 0.7 at dt 0.25 samples every 3 steps; 40 steps end off it
    model = build_dqc_lindblad(builtin("qft3"), True, 1)
    oracle = assert_same_run(model, dt=0.25, max_time=10.0, observe_every=0.7)
    assert [t for t, _ in oracle.samples][-2:] == [39 * 0.25, 40 * 0.25]


@pytest.mark.parametrize("cap", [1, 5])
@pytest.mark.parametrize("options", [
    {"dt": 0.1, "max_time": 30.0},
    {"dt": 0.1, "stop_tol": 1e-3},
    {"dt": 0.75, "max_time": 45.75},
])
def test_buffers_that_cap_the_block(cap, options, monkeypatch):
    # the float budget lets a block of `cap` steps hold its states and
    # their products: a state, its increment and its rhs per step
    model = build_dqc_lindblad(builtin("toffoli"), True, 3)
    size = model.start.size
    monkeypatch.setattr(walk, "_BLOCK_FLOATS", (cap + 1) * 3 * size)
    sizes = []
    block_steps = walk._block_steps

    def recorded(remaining, step_floats):
        sizes.append(block_steps(remaining, step_floats))
        return sizes[-1]

    monkeypatch.setattr(walk, "_block_steps", recorded)
    assert_same_run(model, **options)
    assert max(sizes) == cap


def test_a_drift_past_the_last_step_is_not_counted():
    # toffoli at dt 0.75, above its limit 0.705: 60 steps end the run
    # without a drift, though the block computes state 61, which drifts
    model = build_dqc_lindblad(builtin("toffoli"))
    oracle = assert_same_run(model, dt=0.75, max_time=45.0)
    assert (oracle.steps, oracle.stationary) == (60, False)
    assert assert_same_run(model, dt=0.75, max_time=45.75) == (
        "RK4 diverged at step 61: total trace drifted to 1.0000000001018634 (dt = 0.75)")


@pytest.mark.parametrize("name, include_reset, popcount, dt, detail", [
    ("toffoli", False, 0, 1e300, "step 1: total trace drifted to nan (dt = 1e+300)"),
    ("qft4", True, 4, 0.65, "step 13: "),
])
def test_drift_errors(name, include_reset, popcount, dt, detail):
    model = build_dqc_lindblad(builtin(name), include_reset, popcount)
    error = assert_same_run(model, dt=dt, max_time=100 * dt)
    assert isinstance(error, str) and detail in error


@pytest.mark.parametrize("num_qubits, depth", [(9, 2), (10, 4)])
def test_stacked_samples_at_many_levels(num_qubits, depth):
    # all ones with resets has 10 or 11 levels, past the 8 from which one
    # 2-D product over the block's stacked samples would round their rows
    # otherwise; every state is sampled, 64 to a block
    circuit = seeded_circuit(num_qubits, num_qubits, depth)
    model = build_dqc_lindblad(circuit, True, num_qubits)
    oracle = assert_same_run(model, dt=0.1, max_time=20.0, observe_every=0.1)
    assert (oracle.steps, len(oracle.samples)) == (200, 201)


@pytest.mark.parametrize("nodes, levels", [(2, 1), (6, 4), (10, 5), (17, 7), (13, 13)])
def test_stacked_row_products_round_as_each_row_does(nodes, levels):
    # the block loop takes its norms and totals over stacked rows, of a
    # strided view and of the state buffer; numpy must round each row as
    # the step-by-step loop's own 1-D product does
    rng = np.random.default_rng(nodes * levels)
    size = nodes * levels
    counts = np.tile([math.comb(levels - 1, j) for j in range(levels)], nodes).astype(float)
    for _ in range(20):
        b = int(rng.integers(1, B + 1))
        scale = 10.0 ** rng.integers(-12, 8, (b + 1, 1))
        states = rng.standard_normal((b + 1, size)) * scale
        outs = rng.standard_normal((b, 2 * size)) * scale[1:]
        rhs = outs[:, size:]
        norms = np.sqrt(np.matmul(rhs[:, None, :], rhs[:, :, None]))[:, 0, 0]
        assert norms.tolist() == [frobenius(row) for row in rhs]
        totals = np.matmul(states[1:, None, :], counts)[:, 0]
        assert totals.tobytes() == np.array([counts @ row for row in states[1:]]).tobytes()
