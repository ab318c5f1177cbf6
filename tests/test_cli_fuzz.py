"""The exit-code contract of ``oqw``, fuzzed in-process.

argv runs over the four subcommands, with option values drawn from edge
literals (``nan``, ``inf``, ``-0``, ``1e-320``, ``1e308``, empty, ``５``,
``1_0``, huge integers) and circuit files whose gate lines are mutated from
valid files.  Whatever the input, ``cli.main`` exits 0, 1 or 2, prints no
traceback and issues no warning (a warning would print to stderr); every
input error, a command line that argparse rejects included, returns 2 with
stderr starting ``error:``.  ``lindblad`` keeps its trace rule: a run that
ends, stationary or not, writes samples whose marginals sum to 1 within
``TOL.trace``, and a run that diverges prints no CSV and one line, ``RK4
diverged at step n: total trace drifted to``, whether its total drifted or
a step overflowed.  An exit-0 ``validate`` ends ``OK`` with both residuals
at most 1e-10, and each row of a ``sweep`` that prints its CSV (exit 0, or
exit 1 with rows that did not converge) is that of ``walk.run_chain`` on
the same circuit at its ω, tol and max-steps.  A ``run`` that prints its
CSV (exit 0, or exit 1 out of steps) has history rows that sum to 1 and
follow the birth-death recurrence from node 0 at its ω, and a summary read
off its last row.  A chain walk is trace preserving for every ω in (0, 1],
so a ``run`` or ``sweep`` exits 1 only out of steps, with an empty stderr,
and the examples in ``CONVERGING`` exit 0.  All examples run in one process, through the parser that
the first one built, so an option that leaked from one call into the next
would show here too.

Every example is cheap: ``run`` and ``sweep`` always get ``--max-steps``,
and ``lindblad`` always gets ``--dt`` and ``--max-time``, each drawn from
small values and edge literals, and a fuzzed file has at most six qubits.
"""

import contextlib
import io
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, seed, settings
from hypothesis import strategies as st

from oqwalk import cli, config
from oqwalk import walk as wk
from oqwalk.cli import fmt, main

#: The one line of a diverging ``lindblad`` run.
DIVERGED = re.compile(r"error: RK4 diverged at step \d+: total trace drifted to [^\n]*\n")

HUGE = "9" * 400
EDGE = ["nan", "inf", "-inf", "-0", "0", "1e-320", "1e308", "", "５", "1_0", HUGE, "-" + HUGE,
        str(2**64)]

#: (option, values that usually run, edge values) per command.  Positive
#: huge integers are no ``--max-steps``: with a tol no run can meet, the
#: run would take that many steps.  Every pair of ``--dt`` and
#: ``--max-time`` below is either rejected (a step count that is not finite
#: or above ``MAX_RK4_STEPS``) or plans at most 25 RK4 steps (10 over 0.4).
OMEGA = ("--omega", ["0.5", "0.7", "0.9", "1"], [*EDGE, "0.5:1:0.25"])
TOL = ("--tol", ["1e-3", "1e-7"], EDGE)
INPUT = ("--input", ["110", "1011", "10110", "000"], ["", "0", "５", "1_0", "nan", HUGE])
MAX_STEPS = ("--max-steps", ["1", "7", "30", "300", "５", "1_0"],
             ["-0", "0", "", "nan", "inf", "1e3", "-" + HUGE])
OPTIONS = {
    "validate": ([], [OMEGA]),
    "run": ([MAX_STEPS], [OMEGA, TOL, INPUT]),
    "sweep": ([MAX_STEPS], [
        ("--omega", ["0.5", "1", "0.5:1:0.25", "0.5:0.95:0.05", "1e-320:1:0.5"],
         [*EDGE, "0.5:1:1e-320", "0.9:0.5:0.1", "0:1:0.1", "0.5:inf:0.1", "nan:1:0.1",
          "0.5:1:0", "0.5:1", "0.5::0.1"]),
        TOL,
    ]),
    "lindblad": ([("--dt", ["0.4", "0.75", "５", "1_0"], EDGE),
                  ("--max-time", ["0", "2", "8", "1e-320", "５"], EDGE)], [
        INPUT,
        ("--stop-tol", ["1e-6", "1e308"], EDGE),
        ("--record-every", ["1", "8", "1e-320"], EDGE),
    ]),
}
#: One option that each command does not take.
FOREIGN = {"validate": "--tol", "run": "--dt", "sweep": "--input",
           "lindblad": "--omega"}

HERE = Path(__file__).resolve().parent
VALID_TEXTS = [
    (HERE / "golden" / "w5.circ").read_text(encoding="utf-8"),
    "# comment\nqubits 3\nH 1\nCP 2 1 pi/2\nT 2 ; T 3       # one slice\nCNOT 1 3\n",
    "qubits 1\nP 1 -pi/4\nR 1\n",
]
HEADERS = ["qubits ５", "qubits 1_0", "qubits 0", "qubits 13", "qubits " + HUGE,
           "qubits", "", "# qubits 3", "qubits 2", "qubits 6", "qubits -1"]
#: Characters a mutation inserts: none of them spells a ``qubits`` header.
INSERTS = list(";#\n -0123456789.piHXSTCNOTPR/_") + ["５", "١", "\x00"] + EDGE
CIRCUITS = (["toffoli", "qft3", "qft4", "fuzz.circ", "fuzz.circ"], ["missing.circ", ""])


def pick(draw, usual, edge):
    """A value of ``usual`` three times in four, else an ``edge`` one."""
    return draw(st.sampled_from(usual if draw(st.integers(0, 3)) else edge))


@st.composite
def circuit_texts(draw):
    """A valid file with its header swapped and up to three edits of its
    gate lines: a line deleted or doubled, a character deleted, or a
    character or edge literal inserted."""
    lines = draw(st.sampled_from(VALID_TEXTS)).splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("qubits"))
    header = pick(draw, [None], HEADERS)
    head = lines[: at + 1] if header is None else [*lines[:at], header]
    body = "\n".join(lines[at + 1:])
    for kind, where, insert in draw(st.lists(
        st.tuples(st.sampled_from(["drop line", "double line", "drop char", "insert"]),
                  st.integers(0, 10**6), st.sampled_from(INSERTS)),
        max_size=3,
    )):
        rows = body.split("\n")
        if kind == "drop line" and rows:
            del rows[where % len(rows)]
        elif kind == "double line" and rows:
            rows.insert(where % len(rows), rows[where % len(rows)])
        body = "\n".join(rows)
        if kind == "drop char" and body:
            i = where % len(body)
            body = body[:i] + body[i + 1:]
        elif kind == "insert":
            i = where % (len(body) + 1)
            body = body[:i] + insert + body[i:]
    return "\n".join([*head, body]) + "\n"


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command, "--circuit", pick(draw, *CIRCUITS)]
    required, optional = OPTIONS[command]
    for option, usual, edge in required:
        argv += [option, pick(draw, usual, edge)]
    for option, usual, edge in optional:
        if draw(st.integers(0, 2)) == 0:
            argv += [option, pick(draw, usual, edge)]
    if command == "lindblad" and draw(st.booleans()):
        argv.append("--include-reset")
    if draw(st.integers(0, 9)) == 0:
        argv += [FOREIGN[command], "1"]
    return argv


def call(argv):
    """Exit code, stdout, stderr and the warnings."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def option(argv, name, default=None):
    """The value argparse keeps for ``name``: that of its last occurrence."""
    values = [value for flag, value in zip(argv, argv[1:]) if flag == name]
    return values[-1] if values else default


RESIDUAL = re.compile(r"max slice unitarity residual: (\S+)\n"
                      r"walk normalization residual \(omega=[^)]*\): (\S+)\nOK\n")


def check_validate(out):
    residuals = RESIDUAL.search(out)
    assert residuals and out.endswith(residuals[0]), out
    assert all(float(r) <= 1e-10 for r in residuals.groups()), out


def check_sweep(argv, out):
    """Each row against a one-row ``run_chain`` at its ω, tol and max-steps,
    read from argv as argparse reads them."""
    circuit = cli.load_circuit(argv[2])
    tol = option(argv, "--tol")
    tol = cli._resolve_tol(argv[2], None if tol is None else float(tol))
    max_steps = int(option(argv, "--max-steps"))
    omegas = cli.parse_omega_spec(option(argv, "--omega", "0.5"))
    lines = out.splitlines()
    assert lines[0] == "omega,steps_to_converge,final_detection,converged"
    assert len(lines) == len(omegas) + 1, out
    for omega, line in zip(omegas, lines[1:]):
        report = wk.run_chain(wk.build_dqc_chain(circuit, wk.ChainParams(omega)),
                              tol=tol, max_steps=max_steps)
        assert line.split(",") == [fmt(omega), str(report.steps), fmt(report.final_detection),
                                   str(report.converged).lower()], (omega, line)


#: Each ``run`` history row against the birth-death recurrence, as the
#: benchmark checks it.
HISTORY_TOL = 1e-10


def check_run(argv, code, out):
    """The history, steps 0..n by nodes 0..T, against the birth-death chain
    from node 0 at the run's ω, and the summary against its last row."""
    lines = out.splitlines()
    assert lines[0] == "step,node,probability"
    assert lines[-2] == "steps_to_converge,final_detection,final_fidelity,converged"
    rows = [line.split(",") for line in lines[1:-2]]
    nodes = sum(step == "0" for step, _node, _probability in rows)
    assert [(int(step), int(node)) for step, node, _ in rows] == \
        [divmod(i, nodes) for i in range(len(rows))], out
    history = np.array([float(probability) for *_, probability in rows]).reshape(-1, nodes)
    omega = float(option(argv, "--omega", "0.5"))
    p = np.eye(nodes)[0]
    for step, row in enumerate(history):
        assert abs(math.fsum(row) - 1.0) <= config.TOL.trace, (step, row)
        assert np.abs(row - p).max() <= HISTORY_TOL, (step, row, p)
        p = np.concatenate([[(1 - omega) * p[:2].sum()],
                            omega * p[:-2] + (1 - omega) * p[2:], [omega * p[-2:].sum()]])
    steps, detection, _fidelity, converged = lines[-1].split(",")
    assert steps == rows[-1][0] and detection == rows[-1][2], out
    assert converged == ("true" if code == 0 else "false"), (code, converged)


def lindblad_samples(csv):
    """The node marginals of each sample of a ``lindblad`` CSV: a sample's
    rows run from node 0 up."""
    lines = csv.splitlines()
    assert lines[0] == "time,node,probability"
    samples = []
    for line in lines[1:lines.index("max_deviation_from_uniform,stationary")]:
        _time, node, probability = line.split(",")
        if node == "0":
            samples.append([])
        samples[-1].append(float(probability))
    return samples


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


#: The seed that ``derandomize`` derives from the test body's source, as the
#: body read before it checked values: pinned, so that a check added to the
#: body keeps the draw of 500 examples.
DRAW_SEED = int("aaf80dd36cc4c42776f9d54d160dfeaafe2b11e010ef97061c96f900bd9c4703"
                "4508688cde3ba949cce4f2a8c8752c3", 16)


#: Examples that must exit 0: a chain walk is trace preserving for every ω
#: in (0, 1], so a sweep that converges on every row, and a run that
#: converges, on a built-in and on a file, print their CSV with exit 0.
CONVERGING = [
    (["sweep", "--circuit", "qft3", "--omega", "0.5:1:0.25", "--max-steps", "300",
      "--tol", "1e-3"], VALID_TEXTS[0]),
    (["run", "--circuit", "qft3", "--max-steps", "300", "--tol", "1e-3"], VALID_TEXTS[0]),
    (["run", "--circuit", "fuzz.circ", "--max-steps", "30"], VALID_TEXTS[2]),
]


@seed(DRAW_SEED)
@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs(), text=circuit_texts())
# the derandomized draw reaches no divergence: a step that overflows to a
# non-finite total (the first), and a total that drifts (at step 17 of 23)
@example(argv=["lindblad", "--circuit", "toffoli", "--dt", "1e308", "--max-time", "2"],
         text=VALID_TEXTS[0])
@example(argv=["lindblad", "--circuit", "qft3", "--dt", "0.9", "--max-time", "20",
               "--include-reset"], text=VALID_TEXTS[0])
# nor the converging examples
@example(argv=CONVERGING[0][0], text=CONVERGING[0][1])
@example(argv=CONVERGING[1][0], text=CONVERGING[1][1])
@example(argv=CONVERGING[2][0], text=CONVERGING[2][1])
def test_exit_codes_and_stderr_hold_the_contract(argv, text, workdir):
    converging = (argv, text) in CONVERGING
    fuzzed = workdir / "fuzz.circ"
    fuzzed.write_text(text, encoding="utf-8")
    argv = [str(fuzzed) if a == "fuzz.circ" else a for a in argv]
    code, out, err, caught = call(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    assert not caught, [str(w.message) for w in caught]
    assert code == 0 or not converging, (code, err)
    if code == 1 and argv[0] in ("run", "sweep"):
        # a chain walk is trace preserving, so it fails only by running out
        # of steps, which prints its CSV and no error
        assert not err, err
    if code == 2:
        assert err.startswith("error:"), err
    elif argv[0] == "lindblad" and err:
        event("lindblad diverged")
        assert code == 1 and DIVERGED.fullmatch(err), err
        assert not out, out
    elif argv[0] == "lindblad":
        for sample in lindblad_samples(out):
            assert abs(math.fsum(sample) - 1.0) <= config.TOL.trace, sample
    elif argv[0] == "validate" and code == 0:
        check_validate(out)
    elif argv[0] == "sweep" and not err:
        check_sweep(argv, out)
    elif argv[0] == "run" and not err:
        check_run(argv, code, out)
