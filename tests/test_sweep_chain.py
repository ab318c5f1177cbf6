"""sweep_chain, the lockstep ω-grid engine of ``sweep``, against run_chain."""

import re
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqwalk.cli import main
from oqwalk.errors import DomainError
from oqwalk.walk import ChainParams, ChainWalk, SweepRow, run_chain, sweep_chain
from test_cli import WALK_REFERENCE

GRID = [round(0.5 + 0.05 * k, 12) for k in range(11)]


def chain_row(big_t, omega, tol, max_steps=100_000):
    """run_chain's summary on a chain of T slices; populations do not
    depend on the gates or the input, so 1×1 identities will do."""
    chain = ChainWalk([np.ones((1, 1))] * big_t, ChainParams(omega))
    report = run_chain(chain, [1.0], tol=tol, max_steps=max_steps)
    return SweepRow(report.steps, report.converged, report.final_detection)


@settings(max_examples=100, deadline=None)
@given(
    big_t=st.integers(1, 48),
    omegas=st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=4).map(
        lambda ws: sorted({*ws, 1.0})
    ),
    tol=st.sampled_from([1e-5, 1e-7, 1e-12]),
)
def test_every_row_equals_run_chain(big_t, omegas, tol):
    rows = sweep_chain(big_t, omegas, tol)
    assert rows == [chain_row(big_t, w, tol) for w in omegas]


@pytest.mark.parametrize("max_steps", [1, 14, 50])
def test_rows_that_exhaust_max_steps_equal_run_chain(max_steps, tmp_path):
    rows = sweep_chain(13, GRID, 1e-7, max_steps)
    assert rows == [chain_row(13, w, 1e-7, max_steps) for w in GRID]
    assert not all(r.converged for r in rows)
    assert all(r.steps == max_steps for r in rows if not r.converged)
    argv = ["sweep", "--circuit", "toffoli", "--omega", "0.5:1.0:0.05",
            "--max-steps", str(max_steps), "--out", str(tmp_path / "sweep.csv")]
    assert main(argv) == 1


def test_rows_follow_the_order_of_the_grid():
    grid = [0.9, 0.5, 1.0, 0.7]
    assert sweep_chain(9, grid) == [chain_row(9, w, 1e-7) for w in grid]


def test_reproduces_the_recorded_walk_reference():
    groups = defaultdict(list)
    for key, expected in WALK_REFERENCE.items():
        depth, omega, tol = re.fullmatch(r"T=(\d+) omega=(\S+) tol=(\S+)", key).groups()
        groups[int(depth), float(tol)].append((float(omega), expected))
    assert sum(map(len, groups.values())) == 40
    for (depth, tol), cases in groups.items():
        rows = sweep_chain(depth, [omega for omega, _ in cases], tol)
        for row, (omega, expected) in zip(rows, cases):
            assert (row.steps, row.converged) == (expected["steps"], expected["converged"])
            assert abs(row.final_detection - expected["final_detection"]) <= 1e-9


@pytest.mark.parametrize(
    "args, message",
    [
        ((13, [0.5], float("nan")), "tol must be finite and positive"),
        ((13, [0.5], 0.0), "tol must be finite and positive"),
        ((13, [0.5], 1e-7, 0), "max_steps must be >= 1"),
        ((0, [0.5]), "at least one slice"),
        ((13, [0.5, 1.5]), "omega must be in (0, 1]"),
        ((13, [0.0]), "omega must be in (0, 1]"),
    ],
)
def test_rejects_bad_arguments(args, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        sweep_chain(*args)


def test_trace_drift_is_raised(monkeypatch):
    # λ + ω = 1.02: every backward hop leaks weight into the walk
    monkeypatch.setattr(ChainParams, "lam", property(lambda s: 1.02 - s.omega))
    with pytest.raises(ArithmeticError, match="trace drifted to .* at step 1;"):
        sweep_chain(13, GRID)
