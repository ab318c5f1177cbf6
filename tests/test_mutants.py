"""Recorded mutants of the library, each killed by the tests that guard it.

A row of ``MUTANTS`` names a file under ``src/oqwalk``, an exact text that
occurs in it once, the text that replaces it, and the smallest set of test
node ids that fails on the result.  For each row the test copies ``src/``,
``tests/``, ``perfbench/`` (whose reference some tests read) and
``pyproject.toml`` to a temporary directory, applies the mutant there and
runs ``python -m pytest -q -x`` on the row's nodes in a subprocess inside
the copy, which must exit 1: a test ran and failed.  The
copy needs its own ``pyproject.toml``, whose ``pythonpath = ["src"]`` puts
the mutated tree, not this checkout's, first on the path.  Nothing in the
repository's tree is written.  ``test_the_unmutated_copy_passes`` runs
every row's nodes on a copy without a mutant, so a kill is the mutant's.

A refactor that removes a row's old text fails the row: restate that mutant
against the new code, or say in ``CHANGES.md`` why it no longer applies.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: (file, old text, new text, node ids that kill it), by what it breaks.
MUTANTS = {
    # the chain walk's interior coefficients swapped: every sweep drifts
    "sweep-interior-swap": (
        "walk.py",
        "coef[:, 0], coef[:, 1] = sqrt_w[:, None], sqrt_l[:, None]",
        "coef[:, 0], coef[:, 1] = sqrt_l[:, None], sqrt_w[:, None]",
        ["tests/test_sweep_chain.py::test_rows_follow_the_order_of_the_grid"],
    ),
    # the level block's gain k − j taken as k − j − 1
    "level-gain": (
        "lindblad.py",
        "np.diag(k - j[:-1], 1)",
        "np.diag(k - j[:-1] - 1, 1)",
        ["tests/test_lindblad.py::TestBuildModel::"
         "test_resets_act_only_in_the_level_block_of_register_zero"],
    ),
    # the rows of ‖rhs‖_F left unweighted by √C(k, j)
    "norm-unweighted": (
        "lindblad.py",
        "np.sqrt(counts)[:, None] * model._generator",
        "model._generator",
        ["tests/test_lindblad.py::TestStopRate::"
         "test_rhs_norm_is_that_of_the_whole_frame_diagonal"],
    ),
    # the total of a step summed without the column counts C(k, j)
    "total-unweighted": (
        "lindblad.py",
        "tr = counts @ flat",
        "tr = flat.sum()",
        ["tests/test_lindblad.py::TestRhs::"
         "test_the_total_counts_each_level_by_its_columns"],
    ),
    # the basis input's start put at level 0 instead of level k
    "start-level-zero": (
        "lindblad.py",
        "self.start[0, k] = 1.0",
        "self.start[0, 0] = 1.0",
        ["tests/test_lindblad.py::TestBuildModel::"
         "test_the_start_is_the_basis_input_at_its_top_level"],
    ),
    # parse_circuit's per-line slice check removed: the circuit's own check
    # still refuses the file, but names the header line
    "parse-without-slice-check": (
        "circuits.py",
        "            _check_slice(gates, num_qubits)\n",
        "            pass\n",
        ["tests/test_circuits.py::TestParse::"
         "test_the_first_bad_line_is_reported_whichever_check_it_fails"],
    ),
    # the run history numbered from step 1
    "run-history-from-one": (
        "cli.py",
        'range(len(history)), history)',
        'range(1, len(history) + 1), history)',
        ["tests/test_cli.py::TestRunCommand::test_forward_sweep_hits_step_nine"],
    ),
}


def copy_tree(dest: Path) -> Path:
    """A copy of the source, the tests, the benchmark's recorded reference
    that the tests read, and the pytest configuration."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    return dest


def run_nodes(tree: Path, nodes) -> subprocess.CompletedProcess:
    """``python -m pytest -q -x`` on ``nodes`` inside ``tree``, with its
    ``src`` alone on the path and no cache or bytecode written."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes],
        cwd=tree, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_mutant_is_killed(name, tmp_path):
    file, old, new, nodes = MUTANTS[name]
    tree = copy_tree(tmp_path)
    path = tree / "src" / "oqwalk" / file
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1, f"{name}: the old text occurs {text.count(old)} times"
    path.write_text(text.replace(old, new), encoding="utf-8")
    result = run_nodes(tree, nodes)
    assert result.returncode == 1, (name, result.returncode, result.stdout[-2000:])


def test_the_unmutated_copy_passes(tmp_path):
    nodes = sorted({node for *_, row in MUTANTS.values() for node in row})
    result = run_nodes(copy_tree(tmp_path), nodes)
    assert result.returncode == 0, result.stdout[-2000:]
