"""Acceptance suite: one test per headline criterion, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion with the measured numbers.
"""

import time

import numpy as np
import pytest

from dense_chain import conditional_state, dense_chain, keyed_chain
from dense_lindblad import frame_diagonal, lab_rhs
from oqwalk.circuits import (
    BUILTIN_CIRCUITS,
    basis_state,
    circuit_product,
    circuit_unitaries,
    qft,
    toffoli13,
)
from oqwalk.lindblad import build_dqc_lindblad, integrate
from oqwalk.walk import (
    BlockState,
    ChainParams,
    analytic_chain_steady,
    block_diff_norm,
    classical_marginal_step,
    run_until_converged,
    step,
)
from oracles import dft_matrix, toffoli_matrix

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
S = np.diag([1.0, 1j])

DEFAULT_INPUT = {"toffoli": "110", "qft3": "000", "qft4": "0000"}
SWEEP_TOL = {"toffoli": 1e-7, "qft3": 1e-7, "qft4": 1e-5}


def chain_run(name, omega, tol, bits=None, max_steps=100_000):
    circuit = BUILTIN_CIRCUITS[name]()
    bits = bits or DEFAULT_INPUT[name]
    walk = dense_chain(circuit, ChainParams(omega))
    psi0 = basis_state(circuit.num_qubits, bits)
    init = BlockState.pure(walk.num_nodes, walk.dim, 0, psi0)
    return run_until_converged(walk, init, tol=tol, max_steps=max_steps)


def random_product_state(rng, num_qubits):
    psi = np.array([1.0], dtype=complex)
    for _ in range(num_qubits):
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        qubit = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
        psi = np.kron(psi, qubit)
    return psi


def test_criterion_01_uniform_steady_state():
    budgets = {}
    for name, node, expect in [("toffoli", 13, 1 / 14), ("qft3", 9, 1 / 10)]:
        start = time.perf_counter()
        report = chain_run(name, 0.5, 1e-7)
        budgets[name] = time.perf_counter() - start
        assert report.converged
        assert abs(report.final_detection - expect) < 1e-6, name
        assert budgets[name] < 5.0, f"{name} took {budgets[name]:.2f}s"
    print(
        f"\nACCEPTANCE 1 PASS: uniform steady state 1/14 and 1/10 within 1e-6 "
        f"(toffoli {budgets['toffoli']:.2f}s, qft3 {budgets['qft3']:.2f}s)"
    )


def test_criterion_02_generalized_steady_state():
    worst = 0.0
    for name in sorted(BUILTIN_CIRCUITS):
        depth = BUILTIN_CIRCUITS[name]().depth
        for omega in (0.6, 0.8, 0.9):
            params = ChainParams(omega)
            oracle = analytic_chain_steady(params, depth)
            # the oracle itself is verified against the iterated classical chain
            p = np.zeros(depth + 1)
            p[0] = 1.0
            prev = p
            for _ in range(200_000):
                p = classical_marginal_step(params, depth, prev)
                if np.abs(p - prev).sum() < 1e-16:
                    break
                prev = p
            assert np.abs(p - oracle).max() < 1e-12
            report = chain_run(name, omega, 1e-7)
            err = abs(report.final_detection - oracle[-1])
            worst = max(worst, err)
            assert err < 1e-6, (name, omega, err)
    print(f"\nACCEPTANCE 2 PASS: detection matches geometric oracle, worst |err| = {worst:.2e}")


def test_criterion_03_monotonic_trends():
    grid = [round(0.50 + 0.05 * k, 2) for k in range(10)]
    for name in sorted(BUILTIN_CIRCUITS):
        tol = SWEEP_TOL[name]
        reports = [chain_run(name, omega, tol) for omega in grid]
        detections = [r.final_detection for r in reports]
        steps = [r.steps for r in reports]
        assert all(b > a for a, b in zip(detections, detections[1:])), name
        assert all(b <= a for a, b in zip(steps, steps[1:])), (name, steps)
    print("\nACCEPTANCE 3 PASS: detection strictly increasing, steps non-increasing "
          f"over omega {grid[0]}..{grid[-1]} for all built-ins")


def test_criterion_04_computation_correctness():
    rng = np.random.default_rng(42)
    worst = 1.0
    for name in sorted(BUILTIN_CIRCUITS):
        circuit = BUILTIN_CIRCUITS[name]()
        walk = dense_chain(circuit, ChainParams(0.7))
        product = circuit_product(circuit)
        for _ in range(5):
            psi0 = random_product_state(rng, circuit.num_qubits)
            init = BlockState.pure(walk.num_nodes, walk.dim, 0, psi0)
            report = run_until_converged(walk, init, tol=1e-9)
            assert report.converged
            target = product @ psi0
            rho = conditional_state(report.final_state, circuit.depth)
            fidelity = float((target.conj() @ rho @ target).real)
            worst = min(worst, fidelity)
            assert fidelity >= 1 - 1e-8, (name, fidelity)
    print(f"\nACCEPTANCE 4 PASS: terminal fidelity >= 1-1e-8 on random product inputs "
          f"(worst {worst:.12f})")


def test_criterion_05_circuit_oracles():
    errs = {
        "toffoli": np.linalg.norm(circuit_product(toffoli13()) - toffoli_matrix()),
        "qft3": np.linalg.norm(circuit_product(qft(3)) - dft_matrix(8)),
        "qft4": np.linalg.norm(circuit_product(qft(4)) - dft_matrix(16)),
    }
    for name, err in errs.items():
        assert err < 1e-12, (name, err)
    print(f"\nACCEPTANCE 5 PASS: circuit products match oracles, errors "
          + ", ".join(f"{k}={v:.1e}" for k, v in errs.items()))


def test_criterion_06_cp_tp_invariants():
    worst_drift = 0.0
    worst_eig = 0.0
    for name in sorted(BUILTIN_CIRCUITS):
        circuit = BUILTIN_CIRCUITS[name]()
        walk = dense_chain(circuit, ChainParams(0.7))
        psi0 = basis_state(circuit.num_qubits, DEFAULT_INPUT[name])
        state = BlockState.pure(walk.num_nodes, walk.dim, 0, psi0)
        for _ in range(500):
            state = step(walk, state)
            drift = abs(state.total_trace() - 1.0)
            min_eig = float(np.linalg.eigvalsh(state.blocks).min())
            worst_drift = max(worst_drift, drift)
            worst_eig = min(worst_eig, min_eig)
            assert drift < 1e-10
            assert min_eig >= -1e-10
    print(f"\nACCEPTANCE 6 PASS: over 500 steps, max trace drift {worst_drift:.1e}, "
          f"min block eigenvalue {worst_eig:.1e}")


def test_criterion_07_marginal_equivalence():
    worst = 0.0
    for name in sorted(BUILTIN_CIRCUITS):
        circuit = BUILTIN_CIRCUITS[name]()
        for omega in (0.5, 0.9):
            params = ChainParams(omega)
            walk = dense_chain(circuit, params)
            psi0 = basis_state(circuit.num_qubits, DEFAULT_INPUT[name])
            state = BlockState.pure(walk.num_nodes, walk.dim, 0, psi0)
            p = state.probabilities()
            for _ in range(200):
                state = step(walk, state)
                p = classical_marginal_step(params, circuit.depth, p)
                gap = np.abs(state.probabilities() - p).max()
                worst = max(worst, gap)
                assert gap < 1e-12, (name, omega)
    print(f"\nACCEPTANCE 7 PASS: quantum marginals track the classical chain, "
          f"max gap {worst:.1e} over 200 steps")


def test_criterion_08_two_node_closed_form():
    psi0 = np.array([np.cos(0.3), np.sin(0.3) * np.exp(0.4j)])
    rho0 = np.outer(psi0, psi0.conj())
    worst = 0.0
    for u in (H, S, X):
        for omega in (0.3, 0.5, 0.9):
            params = ChainParams(omega)
            walk = keyed_chain([u], params)
            init = BlockState.pure(2, 2, 0, psi0)
            report = run_until_converged(walk, init, tol=1e-9)
            assert report.converged
            closed = np.stack(
                [params.lam * rho0, params.omega * u @ rho0 @ u.conj().T]
            )
            distance = 0.5 * block_diff_norm(report.final_state, BlockState(closed))
            worst = max(worst, distance)
            assert distance < 1e-7
    print(f"\nACCEPTANCE 8 PASS: two-node steady state matches closed form, "
          f"max trace distance {worst:.1e}")


def test_criterion_09_lindblad_cross_check():
    from oqwalk.circuits import Circuit, Gate

    # stationarity of the uniform mixture on the single-gate model
    single = Circuit(1, ((Gate("H", (1,)),),), name="h1")
    model = build_dqc_lindblad(single)
    psi0 = basis_state(1, "0")
    psi1 = H @ psi0
    rho_star = 0.5 * np.stack([np.outer(psi0, psi0.conj()), np.outer(psi1, psi1.conj())])
    rhs_norm = np.linalg.norm(lab_rhs(model, rho_star))
    assert rhs_norm < 1e-10

    # integrated stationary marginals on the desk-scale chain.  dt is a free
    # parameter of the integrator and the generator is linear, so a coarse
    # stable step reaches the same fixed point; the assertion below is on the
    # final accuracy, not on the path.
    circuit = toffoli13()
    big = build_dqc_lindblad(circuit)
    psi = basis_state(3, "110")
    start = time.perf_counter()
    result = integrate(big, big.start, dt=0.4, stop_tol=2e-6, max_time=400.0)
    elapsed = time.perf_counter() - start
    assert result.stationary
    marginals = result.samples[-1][1]
    deviation = np.abs(marginals - 1.0 / big.num_nodes).max()
    assert deviation < 1e-4
    assert elapsed < 60.0, f"integration took {elapsed:.1f}s"
    # the stationary state is the uniform mixture of the partial computations:
    # the dense generator annihilates it, integrate takes no step from it, and
    # its terminal register holds the circuit output
    history = [psi]
    for u in circuit_unitaries(circuit):
        history.append(u @ history[-1])
    mixture = np.stack([np.outer(v, v.conj()) for v in history]) / big.num_nodes
    assert np.linalg.norm(lab_rhs(big, mixture)) < 1e-10
    frame = frame_diagonal(big._unitaries, mixture)
    assert np.abs(frame[:, 0b110] - 1.0 / big.num_nodes).max() < 1e-15
    assert integrate(big, frame[:, [0b110]], dt=0.4, stop_tol=2e-6).steps == 0
    block = mixture[-1] / np.trace(mixture[-1]).real
    target = circuit_product(circuit) @ psi
    fidelity = float((target.conj() @ block @ target).real)
    assert fidelity >= 1 - 1e-12
    print(f"\nACCEPTANCE 9 PASS: ||rhs(rho*)|| = {rhs_norm:.1e}, marginal deviation "
          f"{deviation:.1e}, fidelity {fidelity:.6f}, runtime {elapsed:.1f}s")


def test_criterion_10_zero_temperature_sweep():
    for name in sorted(BUILTIN_CIRCUITS):
        circuit = BUILTIN_CIRCUITS[name]()
        report = chain_run(name, 1.0, 1e-9)
        t = circuit.depth
        assert report.history[t][t] == pytest.approx(1.0, abs=1e-12), name
        assert report.history[t - 1][t] == 0.0, name
    print("\nACCEPTANCE 10 PASS: omega=1 sweep reaches detection 1.0 at exactly step T")
