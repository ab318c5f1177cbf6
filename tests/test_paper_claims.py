"""The paper's detection claim: with forward weight ω > ½ the chain walk
finds the output register with probability above the canonical 1/(T+1).

The stationary node distribution of a chain of T slices is geometric with
ratio r = ω/λ, so the detection at node T is

    π_T = (r−1)·r^T / (r^{T+1}−1),

which exceeds the uniform 1/(T+1) of the canonical ω = ½ chain for every
r > 1.

And its scaling claim: on ``qft(n)``, n = 3..12, the walk's step count at
fixed ω > ½ grows at most linearly in the depth T, while the canonical
master equation, whose chain hops are unit rates of the path Laplacian on
T+1 nodes, relaxes on the time 1/gap with gap 2 − 2cos(π/(T+1)) ≈ π²/T².
Only T enters, so no circuit is compiled.

The walk's second eigenvalue, 2√(ωλ)·cos(π/(T+1)) (``test_step_oracle.py``),
stays below 2√(ωλ) < 1 for every T at ω > ½, so its step count follows
the transport time T/(2ω − 1), not T²: the sub-linear slopes measured at
T ≤ 96 are pre-asymptotic, and the asymptotic slope is 1.
"""

import math

import numpy as np
import pytest

from oqwalk.circuits import qft
from oqwalk.lindblad import path_laplacian
from oqwalk.walk import ChainParams, analytic_chain_steady, sweep_chain

#: ω > ½, dense near ½, where the advantage over 1/(T+1) vanishes.
OMEGAS = [0.5 + 10.0**-k for k in range(2, 10)]
OMEGAS += [round(0.51 + 0.01 * k, 2) for k in range(49)]  # 0.51:0.99:0.01


def detection_closed_form(omega, big_t):
    """π_T, divided through by r^{T+1} so that large r^T cannot overflow,
    and written with log1p and expm1 so that r near 1 loses no digits."""
    x = (2.0 * omega - 1.0) / (1.0 - omega)  # r − 1
    return (x / (1.0 + x)) / -math.expm1(-(big_t + 1) * math.log1p(x))


def test_closed_form_is_the_last_entry_of_the_steady_state():
    worst = 0.0
    for omega in OMEGAS:
        for big_t in range(1, 301):
            oracle = analytic_chain_steady(ChainParams(omega), big_t)[-1]
            worst = max(worst, abs(detection_closed_form(omega, big_t) / oracle - 1.0))
    assert worst < 1e-12


def test_closed_form_without_rearrangement_on_small_chains():
    for omega in (0.55, 0.7, 0.95):
        r = omega / (1.0 - omega)
        for big_t in (1, 9, 13, 16):
            literal = (r - 1) * r**big_t / (r ** (big_t + 1) - 1)
            assert detection_closed_form(omega, big_t) == pytest.approx(literal, rel=1e-12)


def test_detection_beats_the_canonical_chain_for_every_omega_above_half():
    for omega in OMEGAS:
        for big_t in range(1, 301):
            assert detection_closed_form(omega, big_t) > 1.0 / (big_t + 1), (omega, big_t)


@pytest.mark.parametrize("tol", [1e-5, 1e-7])
@pytest.mark.parametrize("big_t", [9, 13, 16])
def test_sweep_detection_at_convergence_is_the_closed_form(big_t, tol):
    omegas = [round(0.55 + 0.05 * k, 2) for k in range(9)]  # 0.55:0.95:0.05
    rows = sweep_chain(big_t, omegas, tol)
    for omega, row in zip(omegas, rows):
        assert row.converged, omega
        assert row.final_detection > 1.0 / (big_t + 1), omega
        assert abs(row.final_detection - detection_closed_form(omega, big_t)) <= tol, omega


def test_walk_steps_grow_slower_than_the_canonical_relaxation_time():
    depths = [qft(n).depth for n in range(3, 13)]
    assert depths[0] == 9 and depths[-1] == 96
    gaps, steps = [], []
    for big_t in depths:
        laplacian = path_laplacian(big_t + 1)
        gap = -np.linalg.eigvalsh(laplacian)[-2]
        exact = 2.0 - 2.0 * math.cos(math.pi / (big_t + 1))
        assert abs(gap / exact - 1.0) < 1e-10, big_t
        rows = sweep_chain(big_t, [0.6, 0.8], tol=1e-7)
        assert all(row.converged for row in rows), big_t
        gaps.append(gap)
        steps.append([row.steps for row in rows])

    def slope(first, last):  # log-log, from T = 9 to T = 96
        return math.log(last / first) / math.log(depths[-1] / depths[0])

    # measured: 0.73 at ω = 0.6, 0.58 at ω = 0.8, and 1.92 for 1/gap
    for k in range(2):
        assert slope(steps[0][k], steps[-1][k]) < 1.0
    assert slope(1.0 / gaps[0], 1.0 / gaps[-1]) > 1.8


def test_walk_steps_approach_the_transport_time():
    # steps·(2ω − 1)/T falls towards 1 as T grows (measured at ω = 0.6 / 0.8:
    # 2.75 / 1.77 at T = 96, 1.41 / 1.19 at 1000, 1.22 / 1.11 at 3000)
    ratios = []
    for big_t in [96, 300, 1000, 3000]:
        rows = sweep_chain(big_t, [0.6, 0.8], tol=1e-7)
        assert all(row.converged for row in rows), big_t
        ratios.append([row.steps * (2 * w - 1) / big_t for row, w in zip(rows, [0.6, 0.8])])
    for k in range(2):
        per_depth = [r[k] for r in ratios]
        assert all(a > b > 1.0 for a, b in zip(per_depth, per_depth[1:])), per_depth
