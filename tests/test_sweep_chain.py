"""sweep_chain, the lockstep ω-grid engine of ``sweep``, against run_chain."""

import re
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oqwalk import walk
from oqwalk.cli import main
from oqwalk.errors import DomainError
from oqwalk.walk import ChainParams, ChainWalk, SweepRow, run_chain, sweep_chain
from test_cli import WALK_REFERENCE

GRID = [round(0.5 + 0.05 * k, 12) for k in range(11)]
#: Steps per block of sweep_chain.
B = walk._BLOCK_STEPS


def parse_reference_key(key):
    """(T, ω, tol) of a walk entry of the benchmark reference."""
    depth, omega, tol = re.fullmatch(r"T=(\d+) omega=(\S+) tol=(\S+)", key).groups()
    return int(depth), float(omega), float(tol)


def chain_row(big_t, omega, tol, max_steps=100_000):
    """run_chain's summary on a chain of T slices; populations do not
    depend on the gates, so 1×1 identities will do."""
    chain = ChainWalk([np.ones((1, 1))] * big_t, ChainParams(omega))
    report = run_chain(chain, tol=tol, max_steps=max_steps)
    return SweepRow(report.steps, report.converged, report.final_detection)


def run_chain_error(big_t, omega, tol):
    """The trace-drift message of run_chain, or None if it converges."""
    try:
        chain_row(big_t, omega, tol)
    except ArithmeticError as exc:
        return str(exc)
    return None


# ω = 1 takes exactly T + 1 steps.  At T = 4, tol = 1e-7, ω = 0.66 converges
# on step B (the last of the first block) and ω = 0.65 on step B + 1 (the
# first of the second); at T = 4, tol = 1e-12, ω = 0.54 does on step 2B + 1.
# A block_cap of c lowers the float budget to (c + 1)·K·(T + 1), so the
# first block has c steps and the blocks lengthen as rows retire.
@settings(max_examples=100, deadline=None)
@given(
    big_t=st.integers(1, 48),
    omegas=st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=4).map(
        lambda ws: sorted({*ws, 1.0})
    ),
    tol=st.sampled_from([1e-5, 1e-7, 1e-12]),
    max_steps=st.sampled_from([100_000, B - 1, B, B + 1, 2 * B + 1]),
    block_cap=st.sampled_from([None, 1, 3]),
)
@example(big_t=B - 1, omegas=[0.5, 1.0], tol=1e-7, max_steps=100_000, block_cap=None)
@example(big_t=B, omegas=[0.5, 1.0], tol=1e-7, max_steps=100_000, block_cap=None)
@example(big_t=4, omegas=[0.65, 0.66, 1.0], tol=1e-7, max_steps=100_000, block_cap=None)
@example(big_t=4, omegas=[0.54, 0.66, 1.0], tol=1e-12, max_steps=100_000, block_cap=None)
@example(big_t=13, omegas=GRID, tol=1e-7, max_steps=B - 1, block_cap=None)
@example(big_t=13, omegas=GRID, tol=1e-7, max_steps=B, block_cap=None)
@example(big_t=13, omegas=GRID, tol=1e-7, max_steps=B + 1, block_cap=None)
@example(big_t=13, omegas=GRID, tol=1e-7, max_steps=2 * B + 1, block_cap=None)
@example(big_t=4, omegas=[0.65, 0.66, 1.0], tol=1e-7, max_steps=100_000, block_cap=1)
@example(big_t=4, omegas=[0.65, 0.66, 1.0], tol=1e-7, max_steps=100_000, block_cap=3)
@example(big_t=13, omegas=GRID, tol=1e-7, max_steps=2 * B + 1, block_cap=3)
def test_every_row_equals_run_chain(big_t, omegas, tol, max_steps, block_cap):
    with pytest.MonkeyPatch.context() as mp:
        if block_cap is not None:
            mp.setattr(walk, "_BLOCK_FLOATS", (block_cap + 1) * len(omegas) * (big_t + 1))
        rows = sweep_chain(big_t, omegas, tol, max_steps)
    assert rows == [chain_row(big_t, w, tol, max_steps) for w in omegas]


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
        depth, omega, tol = parse_reference_key(key)
        groups[depth, tol].append((omega, expected))
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


@pytest.mark.parametrize("grid, step", [([0.5, 0.6, 1.0], 93), ([0.7, 0.8, 1.0], 53)])
def test_a_drift_that_starts_mid_block_is_raised_where_run_chain_raises(
    grid, step, monkeypatch
):
    # each step leaks 3e-12·ω² of weight, so a row drifts past TOL.trace
    # after tens of steps; ω = 1 would do so on step 34 but converges on
    # step 10 first, so its later steps in the same block must not count
    monkeypatch.setattr(
        ChainParams, "lam", property(lambda s: 1.0 - s.omega + 3e-12 * s.omega**2)
    )
    assert run_chain_error(9, 1.0, 1e-7) is None
    with pytest.raises(ArithmeticError, match="at step 34;"):
        sweep_chain(9, [1.0], 1e-300)
    errors = [e for e in (run_chain_error(9, w, 1e-7) for w in grid) if e]
    expected = min(errors, key=lambda e: int(re.search(r"at step (\d+);", e)[1]))
    assert f"at step {step};" in expected
    with pytest.raises(ArithmeticError) as info:
        sweep_chain(9, grid, 1e-7)
    assert str(info.value) == expected


def test_the_block_buffer_is_bounded():
    # 1000 rows of 501 nodes make a 4 MB population array.  Without the
    # float budget, max_steps = 3 would make a 4-step buffer plus 3 arrays
    # of differences (15 arrays at the peak), and 64 steps 65 arrays.  With
    # it the block is one step, and the peak is that of a step-by-step
    # loop: the amplitudes, the gather buffer and the block buffer (2
    # arrays each), the carried populations, and the differences and their
    # absolute values, 9 arrays.
    grid = [k / 1000 for k in range(1, 1001)]
    one_array = len(grid) * 501 * 8
    tracemalloc.start()
    try:
        sweep_chain(500, grid, 1e-7, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * one_array
