"""The CLI's output bytes against ``tests/golden/golden.json``.

On the platform the file was made on, every case must give the recorded
exit code and the sha256 of its output and stderr.  On any other, the exit
code and the text between numbers must match exactly, and every number x
within the recorded tolerance, relative to max(|x|, 1).  Regenerate the
file with ``tests/golden/make_golden.py`` when a change moves bytes on
purpose.
"""

import json
import math

import pytest

from golden.make_golden import (
    CASES,
    GOLDEN,
    capture,
    describe_change,
    platform_key,
    split_numbers,
)

RECORD = json.loads(GOLDEN.read_text(encoding="utf-8"))
SAME_PLATFORM = RECORD["platform"] == platform_key()


def test_the_file_records_every_case():
    assert [case["argv"] for case in RECORD["cases"]] == CASES


def assert_close(got: str, want: str, rel: float) -> None:
    got_text, got_nums = split_numbers(got)
    want_text, want_nums = split_numbers(want)
    assert got_text == want_text
    for g, w in zip(got_nums, want_nums):
        same = g == w or (math.isnan(g) and math.isnan(w))
        assert same or abs(g - w) <= rel * max(abs(w), 1.0), (g, w)


@pytest.mark.parametrize("case", RECORD["cases"], ids=lambda c: " ".join(c["argv"]))
def test_cli_output_matches_the_golden_record(case):
    got = capture(case["argv"])
    assert got["exit"] == case["exit"]
    if SAME_PLATFORM:
        assert got["stdout_sha256"] == case["stdout_sha256"]
        assert got["stderr_sha256"] == case["stderr_sha256"]
    else:
        assert_close(got["stdout"], case["stdout"], RECORD["relative_tol"])
        assert_close(got["stderr"], case["stderr"], RECORD["relative_tol"])


@pytest.mark.parametrize("old, new, report", [
    # the overflow message has three numbers (the 4 of RK4 counts) and the
    # drift message four, so they are not paired by position
    ("error: RK4 diverged at step 1: overflow encountered in multiply (dt = 1e+300)\n",
     "error: RK4 diverged at step 1: total trace drifted to nan (dt = 1e+300)\n",
     "0 numbers moved, largest move 0; stderr 3 -> 4 numbers; "
     "the text between the numbers changed"),
    # a number that becomes NaN, or stops being one, moves by NaN
    ("total 0.5\n", "total nan\n", "1 numbers moved, largest move nan"),
    ("total nan\n", "total 0.5\n", "1 numbers moved, largest move nan"),
])
def test_describe_change_reports_nan_moves_and_changed_counts(old, new, report):
    argv = ["lindblad", "--circuit", "toffoli"]
    before = {"argv": argv, "exit": 1, "stdout": "", "stderr": old}
    line = describe_change(before, {**before, "stderr": new})
    assert line == f"changed: lindblad --circuit toffoli: {report}"
