"""A spectral oracle for the step count of a chain walk, against sweep_chain.

The node populations of a chain of T slices follow the birth-death chain
p(n+1) = P p(n): node t sends ω of its weight forward and λ = 1 − ω back,
node 0 keeps its λ and node T its ω.  With r = ω/λ and D = diag(r^t),
detailed balance makes S = D^{−1/2} P D^{1/2} symmetric and tridiagonal
(√(ωλ) off the diagonal, λ and ω at its two ends).  With S = Q Λ Qᵀ,

    p(n) = D^{1/2} Q Λ^n Qᵀ D^{−1/2} p(0),   p(0) = e_0,

so the step difference is Δp(n)_t = r^{t/2} Σ_k Q_tk Q_0k μ_k^{n−1} (μ_k − 1).
A stochastic matrix contracts the L1 norm, so Σ_t |Δp(n)_t| never grows
with n, and the step count is the first n where it falls below tol: a
bisection over n finds it without iterating the chain.  This is evidence,
independent of the engine's loop, that sweep_chain stops on the right step.

S is the (T+1)-node path with holding at its ends, so its spectrum is
known in closed form: 1 and μ_k = 2√(ωλ)·cos(πk/(T+1)), k = 1..T (Levin,
Peres and Wilmer, "Markov Chains and Mixing Times", the biased walk on a
path).  The ±μ_1 modes decay slowest, so late in a run the step difference
shrinks by μ_1² every two steps.
"""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oqwalk.circuits import BUILTIN_CIRCUITS
from oqwalk.walk import ChainParams, build_dqc_chain, run_chain, sweep_chain
from test_cli import WALK_REFERENCE
from test_sweep_chain import parse_reference_key

EPS = np.finfo(np.float64).eps
#: ω of the spectrum tests: the ``sweep`` and ``run`` test grid without
#: ω = 1, where λ = 0 and the chain, no longer reversible, has no S.
GRID = [round(0.5 + 0.05 * k, 12) for k in range(10)]
#: A decision within this of tol is a tie: the engine's rounding may decide
#: it either way (the 64dε of run_until_converged's margin, with d = 1).
TIE = 64 * EPS


def symmetric_chain(big_t, omega):
    """S: √(ωλ) off the diagonal, λ and ω at its two ends."""
    lam = 1.0 - omega
    s = np.diag(np.full(big_t, math.sqrt(omega * lam)), 1)
    s += s.T
    s[0, 0], s[-1, -1] = lam, omega
    return s


def step_difference(big_t, omega):
    """n ↦ (Σ_t |Δp(n)_t|, a bound on its rounding error) for 0 < ω < 1.

    Each term is formed from its logarithm, so r^{t/2} cannot overflow and
    μ^n cannot underflow before they meet.  The terms cancel where r^{T/2}
    is large; the bound, (T+1)·64ε times the sum of their magnitudes, says
    how far the closed form can then be trusted.
    """
    lam = 1.0 - omega
    mu, q = np.linalg.eigh(symmetric_chain(big_t, omega))
    weights = q * q[0] * (mu - 1.0)
    log_d = 0.5 * (math.log(omega) - math.log(lam)) * np.arange(big_t + 1)
    # an eigenvalue 0 (T = 1, ω = ½) contributes μ^0 = 1 and then e^−708 ≈ 0
    log_mu = np.log(np.maximum(np.abs(mu), np.finfo(np.float64).tiny))

    def moved(n):
        sign = np.where(mu < 0, (-1.0) ** (n - 1), 1.0)
        terms = weights * sign * np.exp((n - 1) * log_mu + log_d[:, None])
        return np.abs(terms.sum(axis=1)).sum(), (big_t + 1) * TIE * np.abs(terms).sum()

    return moved


def oracle(big_t, omega, tol, max_steps):
    """(steps, converged, tie) of a chain walk, from the closed form."""
    if omega == 1.0:
        # a forward shift absorbed at node T: Σ|Δp| is 2 up to step T, then 0
        steps = min(big_t + 1, max_steps)
        return steps, steps == big_t + 1, False
    moved = step_difference(big_t, omega)
    # invariant: moved(lo) >= tol (step 0 has no difference) and moved(hi) < tol
    lo, hi = 0, max_steps
    if moved(hi)[0] >= tol:
        return max_steps, False, _near_tol(moved, [max_steps], tol)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if moved(mid)[0] < tol else (mid, hi)
    return hi, True, _near_tol(moved, [n for n in (lo, hi) if n > 0], tol)


def _near_tol(moved, steps, tol):
    """Whether any deciding step lies within the tie band (or the closed
    form's own error) of tol."""
    return any(abs(m - tol) <= TIE + err for m, err in map(moved, steps))


@pytest.mark.parametrize("key", sorted(WALK_REFERENCE))
def test_oracle_matches_every_recorded_walk(key):
    depth, omega, tol = parse_reference_key(key)
    expected = WALK_REFERENCE[key]
    steps, converged, tie = oracle(depth, omega, tol, 100_000)
    assert not tie
    assert (steps, converged) == (expected["steps"], expected["converged"])
    row = sweep_chain(depth, [omega], tol)[0]
    assert (row.steps, row.converged) == (steps, converged)


def omega_for(big_t):
    """ω in [0.01, 0.99], and T·log r ≤ 150 above ω = ½: past about 200
    the closed form cancels r^{T/2}-sized terms and stops being an oracle."""
    top = min(0.99, 1.0 / (1.0 + math.exp(-150.0 / big_t)))
    return st.floats(0.01, top)


@settings(max_examples=50, deadline=None)
@given(
    draw=st.integers(1, 300).flatmap(lambda t: st.tuples(st.just(t), omega_for(t))),
    tol=st.sampled_from([1e-5, 1e-7, 1e-12]),
)
def test_sweep_chain_stops_where_the_closed_form_crosses_tol(draw, tol):
    big_t, omega = draw
    max_steps = 10_000
    steps, converged, tie = oracle(big_t, omega, tol, max_steps)
    row = sweep_chain(big_t, [omega], tol, max_steps)[0]
    event("converged" if converged else "max_steps")
    if tie:
        event("tie")
        return
    assert (row.steps, row.converged) == (steps, converged)


def chain_matrix(big_t, omega):
    """P from its definition: column t sends ω to t + 1 and λ to t − 1,
    node 0 keeps its λ and node T its ω."""
    p = np.zeros((big_t + 1, big_t + 1))
    t = np.arange(big_t)
    p[t + 1, t], p[t, t + 1] = omega, 1.0 - omega
    p[0, 0], p[-1, -1] = 1.0 - omega, omega
    return p


def closed_form_spectrum(big_t, omega):
    """1 and 2√(ωλ)·cos(πk/(T+1)), k = 1..T, in ascending order."""
    k = np.arange(1, big_t + 1)
    mu = 2.0 * math.sqrt(omega * (1.0 - omega)) * np.cos(np.pi * k / (big_t + 1))
    return np.sort(np.append(mu, 1.0))


#: How far ``eigvalsh`` of S may lie from the closed form.  LAPACK's
#: symmetric solver is backward stable, so each eigenvalue is within a small
#: multiple of ε‖S‖₂ ≤ ε; the worst measured, on this grid, was 19.5ε.
SPECTRUM_TOL = 64 * EPS


@pytest.mark.parametrize("big_t", [1, 9, 13, 16, 96, 1000])
def test_the_symmetrized_chain_has_the_closed_form_spectrum(big_t):
    # D^{−1/2} P D^{1/2} entry by entry: P is tridiagonal, so entry (i, j) is
    # P_ij·r^{(j−i)/2} with |j − i| ≤ 1, and no power r^{t/2} is formed
    # (r^{T/2} overflows at T = 1000 and ω = 0.95).  eigvalsh of that
    # symmetric matrix, not eigvals of P: r^T ruins P's conditioning, and at
    # T = 96 and ω = 0.95 eigvals is off by up to 0.29
    for omega in GRID:
        p = chain_matrix(big_t, omega)
        half = math.sqrt(omega / (1.0 - omega))  # r^{1/2}
        s = np.diag(np.diag(p)) + np.diag(np.diag(p, 1) * half, 1)
        s += np.diag(np.diag(p, -1) / half, -1)
        assert np.abs(s - symmetric_chain(big_t, omega)).max() <= 4 * EPS, omega
        gap = np.abs(np.linalg.eigvalsh(s) - closed_form_spectrum(big_t, omega)).max()
        assert gap <= SPECTRUM_TOL, (omega, gap / EPS)


@pytest.mark.parametrize("name", sorted(BUILTIN_CIRCUITS))
def test_late_steps_shrink_by_the_second_eigenvalue_squared(name):
    # Δp(n) = Σ_k c_k μ_k^{n−1}(μ_k − 1) v_k: over two steps the ±μ_1 modes
    # both scale by μ_1², so moved(n)/moved(n−2) → μ_1², up to the share of
    # the modes with |μ| ≤ μ_2, which falls as (μ_2/μ_1)^n; twice that bounds
    # it on every case here (measured: up to 1.4 times it, qft3 at ω 0.9 and
    # 0.95).  The run stops with moved near 1e-7, where rounding each
    # |Δp_t| by about ε·p_t moves the ratio by about 2e-9: hence the 1e-8
    circuit = BUILTIN_CIRCUITS[name]()
    for omega in GRID:
        report = run_chain(build_dqc_chain(circuit, ChainParams(omega)))
        assert report.converged
        moved = np.abs(np.diff(report.history, axis=0)).sum(axis=1)
        mu1, mu2 = closed_form_spectrum(circuit.depth, omega)[[-2, -3]]
        bound = 2.0 * (mu2 / mu1) ** report.steps + 1e-8
        assert abs(moved[-1] / moved[-3] / mu1**2 - 1.0) <= bound, (omega, report.steps)
