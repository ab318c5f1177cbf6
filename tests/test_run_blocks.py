"""run_until_converged, which checks a walk once per block of steps,
against ``dense_chain.stepwise_run``, which checks it after every step:
the same steps, convergence, history, final state, drift error and
trace-norm distances, bit for bit."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_chain import (
    chain_table,
    dense_chain,
    history_state,
    keyed_chain,
    seeded_circuit,
    stepwise_run,
)
from oqwalk import _kernels, walk
from oqwalk.circuits import basis_state, circuit_unitaries, toffoli13
from oqwalk.walk import (
    BlockState,
    ChainParams,
    OpenQuantumWalk,
    build_dqc_chain,
    run_chain,
    run_until_converged,
)
from test_walk import random_mixed_state

#: Steps per block of the engines.
B = walk._BLOCK_STEPS


def counted_run(engine, walk_, init, tol, max_steps):
    """One engine's report, or the text of its drift error, and the number
    of trace-norm distances it computed."""
    calls = []
    kernel = _kernels.stacked_trace_norm

    def counted(diff):
        calls.append(1)
        return kernel(diff)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "stacked_trace_norm", counted)
        try:
            outcome = engine(walk_, init, tol=tol, max_steps=max_steps)
        except ArithmeticError as exc:
            outcome = str(exc)
    return outcome, len(calls)


def assert_same_run(walk_, init, tol, max_steps, block_cap=None):
    """The block engine, its blocks capped at ``block_cap`` steps by its
    float budget, against the step-by-step loop."""
    with pytest.MonkeyPatch.context() as mp:
        if block_cap is not None:
            # a step holds its state and that state's copy in the stack
            mp.setattr(walk, "_BLOCK_FLOATS", (block_cap + 1) * 4 * init.blocks.size)
        block, block_calls = counted_run(run_until_converged, walk_, init, tol, max_steps)
    oracle, oracle_calls = counted_run(stepwise_run, walk_, init, tol, max_steps)
    assert block_calls == oracle_calls
    if isinstance(oracle, str):
        assert block == oracle
        return oracle
    assert type(block.converged) is bool
    assert (block.steps, block.converged) == (oracle.steps, oracle.converged)
    assert block.history.shape == oracle.history.shape
    assert block.history.tobytes() == oracle.history.tobytes()
    assert block.final_state.blocks.tobytes() == oracle.final_state.blocks.tobytes()
    assert block.final_detection == oracle.final_detection
    return oracle


def leaky_chain(unitaries, omega, leak):
    """The chain walk whose backward coins carry λ + leak·ω², so that every
    step adds weight and the total drifts from 1 after some steps."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ChainParams, "lam", property(lambda s: 1.0 - s.omega + leak * s.omega**2))
        return keyed_chain(unitaries, ChainParams(omega))


def chain_unitaries(dim, big_t, seed):
    """T slices of a seeded circuit on log2(d) qubits, or 1×1 identities."""
    if dim == 1:
        return [np.ones((1, 1), dtype=np.complex128)] * big_t
    return circuit_unitaries(seeded_circuit(seed, dim.bit_length() - 1, big_t))


# ω = 1 on T slices converges on step T + 1; from a mixed start the
# internal states go on mixing, so some steps whose populations have
# settled are checked and fail.  A leak of 3e-12·ω² drifts after tens of
# steps: at ω = 1 on step 34, inside the first block, where at T = 9 and a
# tol no step meets it raises, and at T = 32 the run has converged on step
# 33 of the same block.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    dim=st.sampled_from([1, 2, 8, 16]),
    big_t=st.integers(1, 12),
    omega=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**16),
    mixed=st.booleans(),
    leak=st.sampled_from([0.0, 0.0, 3e-12]),
    tol=st.sampled_from([1e-5, 1e-7, 1e-12]),
    max_steps=st.sampled_from([1, B - 1, B, B + 1, 2 * B + 1, 2000]),
    block_cap=st.sampled_from([None, 1, 3]),
)
@example(dim=1, big_t=13, omega=0.5, seed=0, mixed=False, leak=0.0, tol=1e-7,
         max_steps=2000, block_cap=None)
@example(dim=8, big_t=13, omega=1.0, seed=1, mixed=False, leak=0.0, tol=1e-7,
         max_steps=2000, block_cap=None)
@example(dim=16, big_t=6, omega=0.7, seed=2, mixed=True, leak=0.0, tol=1e-12,
         max_steps=2 * B + 1, block_cap=3)
@example(dim=2, big_t=9, omega=1.0, seed=3, mixed=False, leak=3e-12, tol=1e-300,
         max_steps=2000, block_cap=None)
@example(dim=2, big_t=9, omega=1.0, seed=3, mixed=False, leak=3e-12, tol=1e-300,
         max_steps=2000, block_cap=3)
@example(dim=1, big_t=32, omega=1.0, seed=0, mixed=False, leak=3e-12, tol=1e-7,
         max_steps=2000, block_cap=None)
def test_block_engine_is_the_stepwise_loop(
    dim, big_t, omega, seed, mixed, leak, tol, max_steps, block_cap
):
    unitaries = chain_unitaries(dim, big_t, seed)
    walk_ = leaky_chain(unitaries, omega, leak)
    if mixed:
        init = random_mixed_state(np.random.default_rng(seed), big_t + 1, dim)
    else:
        init = BlockState.pure(big_t + 1, dim, 0, np.ones(dim))
    assert_same_run(walk_, init, tol, max_steps, block_cap)


@pytest.mark.parametrize("block_cap", [None, 1, 3])
def test_a_drift_that_starts_mid_block_is_raised_where_the_loop_raises(block_cap):
    walk_ = leaky_chain(chain_unitaries(2, 9, 3), 1.0, 3e-12)
    init = BlockState.pure(10, 2, 0, [1.0, 0.0])
    error = assert_same_run(walk_, init, 1e-300, 2000, block_cap)
    assert re.fullmatch(r"trace drifted to \S+ at step 34; walk is not trace preserving",
                        error)


def test_a_drift_on_a_step_that_would_converge_is_raised_unmeasured():
    # ω = 1 carries all weight to node T on step T, and node T's self-loop
    # then adds 1e-9 a step: a change below tol, but a drift past
    # TOL.trace, which the loop checks first, so it raises on step T + 1,
    # inside the first block, and computes no distance
    big_t = 5
    table = chain_table(chain_unitaries(2, big_t, 4), ChainParams(1.0))
    table[big_t, big_t] = table[big_t, big_t] * math.sqrt(1 + 1e-9)
    walk_ = OpenQuantumWalk(big_t + 1, 2, table)
    init = BlockState.pure(big_t + 1, 2, 0, [1.0, 0.0])
    error = assert_same_run(walk_, init, 1e-7, 2000)
    assert re.fullmatch(r"trace drifted to \S+ at step 6; walk is not trace preserving", error)


@pytest.mark.parametrize("block_cap", [None, 3])
def test_a_walk_that_overflows_past_its_drift_raises_the_drift(block_cap):
    # the coin squares the trace by 1e40 a step: it drifts on step 1, and the
    # rest of the block overflows to inf and nan, which must not warn (the
    # suite turns warnings into errors) but leave the drift to be raised
    walk_ = OpenQuantumWalk(1, 1, {(0, 0): [[1e20]]})
    init = BlockState.pure(1, 1, 0, [1.0])
    error = assert_same_run(walk_, init, 1e-7, 100_000, block_cap)
    assert error == "trace drifted to 1e+40 at step 1; walk is not trace preserving"


@pytest.mark.parametrize("leak, max_steps", [(0.0, B + 1), (1e-12, 2000)])
def test_rows_longer_than_the_ufunc_buffer_sum_as_the_loop_sums(leak, max_steps):
    # 8193 nodes: each row's total and change sum more entries than the
    # 8192 of numpy's ufunc buffer, and spread populations make every entry
    # count; the leak drifts on step 278, and the error prints that total
    big_t = 8192
    rng = np.random.default_rng(5)
    p = rng.random(big_t + 1)
    init = BlockState((p / p.sum())[:, None, None])
    walk_ = leaky_chain(chain_unitaries(1, big_t, 0), 0.6, leak)
    outcome = assert_same_run(walk_, init, 1e-3, max_steps)
    if leak:
        assert "at step 278;" in outcome
    else:
        assert outcome.steps == max_steps


@pytest.mark.parametrize(
    "omega, max_steps, converged",
    [(0.5, 100_000, True), (0.5, 7, False), (0.5, B, False), (0.5, B + 1, False),
     (1.0, 100_000, True)],
)
def test_converged_is_a_bool(omega, max_steps, converged):
    report = run_chain(build_dqc_chain(toffoli13(), ChainParams(omega)), max_steps=max_steps)
    assert type(report.converged) is bool
    assert report.converged is converged


@pytest.mark.parametrize(
    "qubits, depth, bound_mib",
    [
        # one state (1.25 MiB) exceeds the float budget, so each block is
        # one step, and the peak is the step-by-step loop's 6.4 MiB (5.1
        # states: the carried state and the step kernel's gathered blocks,
        # products and scatter index)
        (7, 4, 6.4),
        # d = 32: the step-by-step loop's 0.85 MiB plus the 1 MiB budget of
        # a block's states and their stack
        (5, 8, 0.85 + 1.0),
    ],
)
def test_peak_memory_of_a_dense_walk(qubits, depth, bound_mib):
    circuit = seeded_circuit(3, qubits, depth)
    walk_ = dense_chain(circuit, ChainParams(0.9))
    p = np.zeros(depth + 1)
    p[0] = 1.0
    init = history_state(circuit_unitaries(circuit), basis_state(qubits, "1" * qubits), p)
    tracemalloc.start()
    try:
        report = run_until_converged(walk_, init, tol=1e-9, max_steps=300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak <= bound_mib * 2**20
