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
"""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oqwalk.walk import sweep_chain
from test_cli import WALK_REFERENCE
from test_sweep_chain import parse_reference_key

EPS = np.finfo(np.float64).eps
#: A decision within this of tol is a tie: the engine's rounding may decide
#: it either way (the 64dε of run_until_converged's margin, with d = 1).
TIE = 64 * EPS


def step_difference(big_t, omega):
    """n ↦ (Σ_t |Δp(n)_t|, a bound on its rounding error) for 0 < ω < 1.

    Each term is formed from its logarithm, so r^{t/2} cannot overflow and
    μ^n cannot underflow before they meet.  The terms cancel where r^{T/2}
    is large; the bound, (T+1)·64ε times the sum of their magnitudes, says
    how far the closed form can then be trusted.
    """
    lam = 1.0 - omega
    s = np.diag(np.full(big_t, math.sqrt(omega * lam)), 1)
    s += s.T
    s[0, 0], s[-1, -1] = lam, omega
    mu, q = np.linalg.eigh(s)
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
