import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dense_chain import conditional_state, history_state, seeded_circuit
from dense_lindblad import frame_diagonal
import oqwalk
from oqwalk import circuits, cli
from oqwalk.cli import MAX_GRID_POINTS, fmt, main, parse_omega_spec
from oracles import render_circuit

#: A committed circuit file of two qubits and one slice: a chain of two nodes.
ONE_SLICE = str(Path(__file__).resolve().parent / "golden" / "one.circ")

#: The walk entries that the benchmark records and checks its outputs against.
WALK_REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json").read_text(
        encoding="utf-8"
    )
)["walk"]


def read_run_csv(path):
    """Split a run CSV into history rows and the summary dict."""
    lines = path.read_text().splitlines()
    assert lines[0] == "step,node,probability"
    split = lines.index("steps_to_converge,final_detection,final_fidelity,converged")
    history = [tuple(row.split(",")) for row in lines[1:split]]
    values = lines[split + 1].split(",")
    summary = {
        "steps": int(values[0]),
        "detection": float(values[1]),
        "fidelity": float(values[2]),
        "converged": values[3],
    }
    return history, summary


class TestOmegaSpec:
    def test_single_value(self):
        assert parse_omega_spec("0.7") == [0.7]

    def test_grid_inclusive(self):
        assert parse_omega_spec("0.5:0.9:0.1") == [0.5, 0.6, 0.7, 0.8, 0.9]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            parse_omega_spec("0.0")
        with pytest.raises(ValueError):
            parse_omega_spec("1.2")

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_omega_spec("0.5:0.9")

    def test_grid_point_limit(self):
        assert len(parse_omega_spec("0.0001:1:0.0001")) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="at most"):
            parse_omega_spec("0.0001:1:0.00009999")

    def test_grid_points_are_the_floats_of_their_decimals(self):
        # the benchmark grid: 0.5, 0.55, ..., 0.95 as their own literals
        literals = [f"0.{50 + 5 * k}" for k in range(10)]
        assert parse_omega_spec("0.5:0.95:0.05") == [float(x) for x in literals]

    def test_grid_keeps_every_digit_of_its_start(self):
        assert parse_omega_spec("0.6123456789012345:0.7:0.5") == [0.6123456789012345]
        assert parse_omega_spec("1e-13:0.5:0.25") == [1e-13, 0.2500000000001]

    @pytest.mark.parametrize("spec", ["0.9:0.5:0.1", "0.9:0.85:0.1"])
    def test_grid_past_its_stop_is_empty(self, spec):
        # in the second, (stop − start)/step = −0.5 rounds to 0 but floors to −1
        with pytest.raises(ValueError, match="empty"):
            parse_omega_spec(spec)

    def test_tiny_start_sweeps(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--circuit", "qft3", "--omega", "1e-13:0.5:0.25",
                     "--out", str(out)]) == 0
        omegas = [row.split(",")[0] for row in out.read_text().splitlines()[1:]]
        assert omegas == [fmt(1e-13), fmt(0.2500000000001)]


def test_fmt_uses_17_significant_digits():
    assert fmt(1.0 / 14.0) == "0.071428571428571425"
    assert fmt(1.0) == "1"


class TestValidateCommand:
    def test_builtin_ok(self, capsys):
        assert main(["validate", "--circuit", "toffoli"]) == 0
        out = capsys.readouterr().out
        assert "13 slices" in out
        assert "OK" in out

    def test_qft3_slice_count(self, capsys):
        assert main(["validate", "--circuit", "qft3"]) == 0
        assert "9 slices" in capsys.readouterr().out

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.circ"
        bad.write_text("qubits 2\nCNOT 1 1\n")
        assert main(["validate", "--circuit", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "--circuit", "no_such_thing"]) == 2

    def test_out_writes_the_report(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["validate", "--circuit", "toffoli", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert "13 slices" in lines[0]
        assert lines[-1] == "OK"
        assert capsys.readouterr().out == ""

    def test_grid_rejected(self, capsys):
        assert main(["validate", "--circuit", "toffoli", "--omega", "0.5:0.9:0.1"]) == 2
        captured = capsys.readouterr()
        assert "omega" in captured.err
        assert captured.out == ""


class TestRunCommand:
    def test_toffoli_uniform(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main([
            "run", "--circuit", "toffoli", "--omega", "0.5", "--out", str(out),
        ])
        assert code == 0
        history, summary = read_run_csv(out)
        assert summary["converged"] == "true"
        assert summary["detection"] == pytest.approx(1.0 / 14.0, abs=1e-6)
        # step 0 row holds the initial distribution
        assert history[0] == ("0", "0", "1")

    def test_forward_sweep_hits_step_nine(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main([
            "run", "--circuit", "qft3", "--omega", "1.0", "--out", str(out),
        ]) == 0
        history, _ = read_run_csv(out)
        at_step = {
            (int(s), int(n)): float(p) for s, n, p in history
        }
        assert at_step[(9, 9)] == pytest.approx(1.0, abs=1e-12)
        assert at_step[(8, 9)] == 0.0

    def test_byte_stable(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            main(["run", "--circuit", "qft3", "--omega", "0.8", "--out", str(p)])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert b"\r" not in paths[0].read_bytes()

    def test_grid_rejected(self, tmp_path, capsys):
        code = main([
            "run", "--circuit", "toffoli", "--omega", "0.5:0.9:0.1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_non_convergence_flagged(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main([
            "run", "--circuit", "toffoli", "--omega", "0.5",
            "--max-steps", "3", "--out", str(out),
        ])
        assert code == 1
        _, summary = read_run_csv(out)
        assert summary["converged"] == "false"
        assert summary["steps"] == 3

    def test_fidelity_is_nan_before_population_reaches_the_output(self, capsys):
        # three steps cannot carry any population across toffoli's 13 slices
        argv = ["run", "--circuit", "toffoli", "--omega", "0.9", "--max-steps", "3"]
        assert main(argv) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "3,0,nan,false"

    def test_trace_drift_is_a_numeric_failure(self, tmp_path, monkeypatch, capsys):
        # λ + ω = 1.02: every backward hop leaks weight into the walk
        monkeypatch.setattr(cli.wk.ChainParams, "lam", property(lambda s: 1.02 - s.omega))
        code = main([
            "run", "--circuit", "toffoli", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: trace drifted")
        assert "Traceback" not in err

    @pytest.mark.parametrize("bits", ["11", "11x"])
    def test_input_length_checked(self, bits, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main([
            "run", "--circuit", "toffoli", "--omega", "0.5", "--input", bits,
            "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: need 3 bits of 0/1, got '{bits}'\n"
        assert not out.exists()


def comprehension_run_csv(name, omega, tol, max_steps):
    """``run``'s CSV of a built-in or a circuit file and its exit code, with
    the history written by one f-string per (step, node), as a per-row
    comprehension, and the fidelity read off the whole lifted state of the
    chain."""
    circuit = cli.load_circuit(name)
    bits = cli._DEFAULT_INPUTS.get(name, "0" * circuit.num_qubits)
    psi0 = circuits.basis_state(circuit.num_qubits, bits)
    chain = cli.wk.build_dqc_chain(circuit, cli.wk.ChainParams(omega))
    report = cli.wk.run_chain(
        chain, tol=cli._resolve_tol(name, tol), max_steps=max_steps
    )
    target = circuits.circuit_product(circuit) @ psi0
    fidelity = float("nan")
    if report.final_detection > cli.TOL.zero_probability:
        lifted = history_state(chain.unitaries, psi0, report.history[-1])
        rho = conditional_state(lifted, circuit.depth)
        fidelity = float((target.conj() @ rho @ target).real)
    rows = ["step,node,probability"]
    rows += [
        f"{n},{node},{p:.17g}"
        for n, dist in enumerate(report.history.tolist())
        for node, p in enumerate(dist)
    ]
    rows.append("steps_to_converge,final_detection,final_fidelity,converged")
    rows.append(
        f"{report.steps},{fmt(report.final_detection)},"
        f"{fmt(fidelity)},{str(report.converged).lower()}"
    )
    return "\n".join(rows) + "\n", 0 if report.converged else 1


def check_run_csv(name, omega, tol, max_steps, tmp_path):
    """Run ``run`` and compare its CSV with the per-row comprehension's;
    the comprehension's text and exit code."""
    out = tmp_path / "run.csv"
    argv = ["run", "--circuit", name, "--omega", omega, "--max-steps", str(max_steps),
            "--out", str(out)]
    if tol is not None:
        argv += ["--tol", repr(tol)]
    text, code = comprehension_run_csv(name, float(omega), tol, max_steps)
    assert main(argv) == code
    assert out.read_bytes() == text.encode("utf-8")
    return text, code


@pytest.mark.parametrize(
    "omega, tol, max_steps",
    [("0.5", None, 100_000), ("1.0", None, 100_000), ("0.5", 1e-12, 100_000),
     ("0.5", None, 7)],
    ids=["omega-0.5", "omega-1.0", "tol-1e-12", "max-steps-7"],
)
@pytest.mark.parametrize("name", sorted(circuits.BUILTIN_CIRCUITS))
def test_run_csv_is_that_of_the_per_row_comprehension(name, omega, tol, max_steps, tmp_path):
    _, code = check_run_csv(name, omega, tol, max_steps, tmp_path)
    assert code == (1 if max_steps == 7 else 0)


@pytest.mark.parametrize(
    "omega, tol, max_steps",
    [("0.5", None, 100_000), ("1.0", None, 100_000), ("0.5", 1e-12, 100_000),
     ("0.5", None, 1)],
    ids=["omega-0.5", "omega-1.0", "tol-1e-12", "max-steps-1"],
)
def test_run_csv_of_a_one_slice_file_is_that_of_the_per_row_comprehension(
        omega, tol, max_steps, tmp_path):
    # two nodes: each step's rows are two lines, one newline between them
    text, code = check_run_csv(ONE_SLICE, omega, tol, max_steps, tmp_path)
    assert code == (1 if max_steps == 1 else 0)
    assert text.splitlines()[1:3] == ["0,0,1", "0,1,0"]


def comprehension_lindblad_csv(name, bits, include_reset, dt, stop_tol, max_time,
                               record_every):
    """``lindblad``'s CSV of a built-in or a circuit file and its exit code,
    with the samples written by one f-string per (sample, node), as a
    per-row loop."""
    circuit = cli.load_circuit(name)
    psi0 = circuits.basis_state(circuit.num_qubits, bits)
    model = cli.lb.build_dqc_lindblad(circuit, include_reset=include_reset)
    rho0 = cli.wk.BlockState.pure(model.num_nodes, model.dim, 0, psi0).blocks
    result = cli.lb.integrate(model, frame_diagonal(model._unitaries, rho0), dt=dt,
                              stop_tol=stop_tol, max_time=max_time,
                              observe_every=record_every)
    rows = ["time,node,probability"]
    for t, marg in result.samples:
        for node, p in enumerate(marg):
            rows.append(f"{fmt(t)},{node},{fmt(p)}")
    deviation = float(np.abs(result.samples[-1][1] - 1.0 / model.num_nodes).max())
    rows.append("max_deviation_from_uniform,stationary")
    rows.append(f"{fmt(deviation)},{str(result.stationary).lower()}")
    return "\n".join(rows) + "\n", 0 if result.stationary else 1


def check_lindblad_csv(name, include_reset, input_kind, dt, stop_tol, max_time,
                       record_every, tmp_path):
    """Run ``lindblad`` and compare its CSV with the per-row loop's; the
    loop's text."""
    num_qubits = cli.load_circuit(name).num_qubits
    bits = (cli._DEFAULT_INPUTS.get(name, "0" * num_qubits) if input_kind == "default"
            else "1" * num_qubits)
    out = tmp_path / "lindblad.csv"
    argv = ["lindblad", "--circuit", name, "--input", bits, "--dt", repr(dt),
            "--stop-tol", repr(stop_tol), "--max-time", repr(max_time),
            "--record-every", repr(record_every), "--out", str(out)]
    if include_reset:
        argv.append("--include-reset")
    text, code = comprehension_lindblad_csv(name, bits, include_reset, dt, stop_tol, max_time,
                                            record_every)
    assert main(argv) == code
    assert out.read_bytes() == text.encode("utf-8")
    return text


def sample_count(text):
    return sum(line.split(",")[1:2] == ["0"] for line in text.splitlines())


@pytest.mark.parametrize(
    "input_kind, dt, stop_tol, max_time, record_every, samples",
    [("default", 0.4, 1e-8, 40.0, 1.0, 51), ("ones", 0.4, 1e-8, 40.0, 1.0, 51),
     ("ones", 0.4, 1e-8, 40.0, 1.2, 35), ("ones", 0.4, 1e9, 40.0, 1.0, 1),
     ("default", 2.5e-05, 1e-8, 1e-4, 2.5e-05, 5)],
    ids=["default-input", "all-ones", "last-sample-off-stride", "stationary-start",
         "exponent-times"],
)
@pytest.mark.parametrize("include_reset", [False, True], ids=["plain", "reset"])
@pytest.mark.parametrize("name", sorted(circuits.BUILTIN_CIRCUITS))
def test_lindblad_csv_is_that_of_the_per_row_loop(name, include_reset, input_kind, dt,
                                                   stop_tol, max_time, record_every, samples,
                                                   tmp_path):
    # dt 0.4 plans 100 steps to t = 40, sampled every 2; a 1.2 stride of 3
    # leaves step 100 off it, and a stop tolerance of 1e9 takes no step.
    # dt 2.5e-05 samples every step, at times that print in exponent form
    text = check_lindblad_csv(name, include_reset, input_kind, dt, stop_tol, max_time,
                              record_every, tmp_path)
    assert sample_count(text) == samples
    if dt == 2.5e-05:
        assert text.splitlines()[-3].startswith("0.0001,")
        assert "\n2.5000000000000001e-05,0," in text


@pytest.mark.parametrize(
    "input_kind, include_reset, dt, stop_tol, max_time, record_every, samples",
    [("default", False, 0.4, 1e-8, 40.0, 1.0, 13), ("ones", True, 0.4, 1e-8, 40.0, 1.0, 51),
     ("ones", True, 0.4, 1e-8, 40.0, 1.2, 35), ("ones", False, 0.4, 1e9, 40.0, 1.0, 1),
     ("default", True, 2.5e-05, 1e-8, 1e-4, 2.5e-05, 5)],
    ids=["default-input", "all-ones-reset", "last-sample-off-stride", "stationary-start",
         "exponent-times"],
)
def test_lindblad_csv_of_a_one_slice_file_is_that_of_the_per_row_loop(
        input_kind, include_reset, dt, stop_tol, max_time, record_every, samples, tmp_path):
    # two nodes: each sample's rows are two lines, one newline between them;
    # without reset the chain is stationary by t = 12
    text = check_lindblad_csv(ONE_SLICE, include_reset, input_kind, dt, stop_tol, max_time,
                              record_every, tmp_path)
    assert sample_count(text) == samples


class TestSweepCommand:
    def test_detection_increases(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--circuit", "qft3", "--omega", "0.5:0.9:0.2",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega,steps_to_converge,final_detection,converged"
        rows = [line.split(",") for line in lines[1:]]
        omegas = [float(r[0]) for r in rows]
        dets = [float(r[2]) for r in rows]
        assert omegas == sorted(omegas)
        assert all(b > a for a, b in zip(dets, dets[1:]))

    def test_single_point_matches_run_summary(self, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        run_out = tmp_path / "run.csv"
        main(["sweep", "--circuit", "toffoli", "--omega", "0.8", "--out", str(sweep_out)])
        main(["run", "--circuit", "toffoli", "--omega", "0.8", "--out", str(run_out)])
        row = sweep_out.read_text().splitlines()[1].split(",")
        _, summary = read_run_csv(run_out)
        assert int(row[1]) == summary["steps"]
        assert float(row[2]) == summary["detection"]

    @pytest.mark.parametrize("circuit", ["toffoli", "qft3"])
    def test_every_grid_row_is_the_summary_of_its_run(self, circuit, tmp_path, capsys):
        # steps, final_detection and converged byte for byte: the lockstep
        # grid of sweep against run_chain at each omega
        assert main(["sweep", "--circuit", circuit, "--omega", "0.5:0.95:0.05"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 10
        for row in rows:
            omega, steps, detection, converged = row.split(",")
            assert main(["run", "--circuit", circuit, "--omega", omega]) == 0
            summary = capsys.readouterr().out.splitlines()[-1].split(",")
            assert [summary[0], summary[1], summary[3]] == [steps, detection, converged]

    @pytest.mark.parametrize("argv, once", [
        (["run", "--omega", "0.5"], True),
        (["validate"], True),
        (["sweep", "--omega", "0.5:0.95:0.05"], False),
    ])
    def test_compiles_each_slice_once(self, argv, once, tmp_path, monkeypatch):
        # one application per gate of the circuit; sweep prints no fidelity
        # and reads only the depth: it compiles nothing
        applied = []
        apply = circuits.apply_on_qubits

        def counted(op, qubits, mat):
            applied.append(qubits)
            return apply(op, qubits, mat)

        monkeypatch.setattr(circuits, "apply_on_qubits", counted)
        assert main([*argv, "--circuit", "toffoli", "--out", str(tmp_path / "x")]) == 0
        gates = [g.qubits for gates in circuits.toffoli13().slices for g in gates]
        assert applied == (gates if once else [])

    @pytest.mark.parametrize("option", [
        ["--tol", "nan"], ["--tol", "inf"], ["--tol", "0"], ["--tol", "-1"],
        ["--max-steps", "0"], ["--max-steps", "-3"], ["--circuit", "no-such-circuit.txt"],
    ])
    def test_bad_input_is_the_input_error_of_run(self, option, tmp_path, capsys):
        errors = []
        for command in ("run", "sweep"):
            out = tmp_path / f"{command}.csv"
            argv = [command, "--circuit", "toffoli", "--omega", "0.5", *option]
            assert main([*argv, "--out", str(out)]) == 2
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert errors[0].startswith("error:") and "Traceback" not in errors[0]
        assert errors[1] == errors[0]

    def test_trace_drift_is_a_numeric_failure(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.wk.ChainParams, "lam", property(lambda s: 1.02 - s.omega))
        out = tmp_path / "x.csv"
        assert main(["sweep", "--circuit", "toffoli", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: trace drifted") and "Traceback" not in err
        assert not out.exists()

    def test_nonconverged_cell_sets_exit_code(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--circuit", "toffoli", "--omega", "0.5:0.9:0.4",
            "--max-steps", "5", "--out", str(out),
        ])
        assert code == 1
        assert "false" in out.read_text()


class TestLindbladCommand:
    def test_single_gate_uniform_marginals(self, tmp_path):
        circ = tmp_path / "h.circ"
        circ.write_text("qubits 1\nH 1\n")
        out = tmp_path / "lb.csv"
        code = main([
            "lindblad", "--circuit", str(circ), "--stop-tol", "1e-9",
            "--max-time", "50", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "time,node,probability"
        split = lines.index("max_deviation_from_uniform,stationary")
        deviation, stationary = lines[split + 1].split(",")
        assert stationary == "true"
        assert float(deviation) < 1e-6
        # final sampled marginals are the uniform pair
        finals = [line.split(",") for line in lines[split - 2 : split]]
        assert [f[1] for f in finals] == ["0", "1"]
        assert all(abs(float(f[2]) - 0.5) < 1e-6 for f in finals)

    def test_zero_length_circuit_rejected(self, tmp_path, capsys):
        circ = tmp_path / "empty.circ"
        circ.write_text("qubits 2\n")
        assert main(["lindblad", "--circuit", str(circ)]) == 2

    def test_too_many_rk4_steps_is_an_input_error_before_any_step(self, tmp_path, capsys):
        # 1e300 planned steps: without the bound this would run until killed
        out = tmp_path / "lb.csv"
        start = time.perf_counter()
        code = main(["lindblad", "--circuit", "toffoli", "--dt", "1e-300",
                     "--max-time", "1", "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: max_time/dt") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        # RK4 is stable while dt times the generator's spectral radius stays
        # below 2.785: up to dt = 0.705 on toffoli, whose path Laplacian
        # reaches −3.95, and 0.714 on qft3 from 000, where no reset acts.
        # Above it the rounding grows until the total trace drifts from 1 by
        # more than TOL.trace, or at once, where a step overflows to a
        # non-finite total
        (["--circuit", "toffoli", "--dt", "0.75"],
         "error: RK4 diverged at step 61: total trace drifted to "),
        (["--circuit", "toffoli", "--dt", "1e300"],
         "error: RK4 diverged at step 1: total trace drifted to "),
        (["--circuit", "qft3", "--include-reset", "--dt", "0.9"],
         "error: RK4 diverged at step 16: total trace drifted to "),
    ])
    def test_diverging_dt_is_a_numeric_failure(self, argv, message, tmp_path, capsys):
        out = tmp_path / "lb.csv"
        assert main(["lindblad", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("circuit, argv, step", [
        ("qft4", ["--input", "1011", "--dt", "0.65", "--max-time", "105"], 53),
        ("seeded 8x4", ["--input", "11111111", "--dt", "0.4", "--max-time", "10"], 7),
    ])
    def test_above_the_limit_with_reset_is_an_error_not_a_csv(self, circuit, argv, step,
                                                              tmp_path, capsys):
        # above RK4's limit (0.619 for qft4 from 1011, 0.305 for the 8-qubit
        # file from all ones) the rounding of the reset columns grows.  A
        # rescale of the total once let both runs write their samples, with
        # minima −0.3125 and −0.048828125, and exit 1 with an empty stderr;
        # the drift rule stops them at the step the total leaves TOL.trace
        if circuit != "qft4":
            circuit = tmp_path / "seeded.circ"
            circuit.write_text(render_circuit(seeded_circuit(8, 8, 4)))
        out = tmp_path / "lb.csv"
        assert main(["lindblad", "--circuit", str(circuit), "--include-reset", *argv,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: RK4 diverged at step {step}: total trace drifted to ")
        assert err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("reset", [[], ["--include-reset"]])
    def test_output_depends_on_the_depth_and_width_not_the_gates(self, reset, tmp_path):
        # from a basis state the frame diagonal never reads a gate, so two
        # different circuits of equal depth and width give the same bytes
        outputs = []
        for seed in (3, 4):
            circ = tmp_path / f"s{seed}.circ"
            circ.write_text(render_circuit(seeded_circuit(seed, 5, 9)))
            out = tmp_path / f"s{seed}.csv"
            assert main(["lindblad", "--circuit", str(circ), "--input", "10110",
                         "--dt", "0.4", "--max-time", "12", "--out", str(out), *reset]) == 1
            outputs.append(out.read_bytes())
        assert (tmp_path / "s3.circ").read_text() != (tmp_path / "s4.circ").read_text()
        assert outputs[0] == outputs[1]

    def test_qft4_relaxes_to_uniform_registers(self, tmp_path):
        # 17 registers of 16-dimensional blocks
        out = tmp_path / "lb.csv"
        code = main([
            "lindblad", "--circuit", "qft4", "--dt", "0.4", "--stop-tol", "2e-6",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[-1].endswith(",true")
        finals = [float(line.split(",")[2]) for line in lines[-19:-2]]
        assert max(abs(p - 1.0 / 17) for p in finals) < 1e-4


class TestLoadCircuit:
    def test_builtin_names(self):
        for name in ("toffoli", "qft3", "qft4"):
            assert cli.load_circuit(name).depth >= 9

    def test_file_path(self, tmp_path):
        p = tmp_path / "c.circ"
        p.write_text("qubits 2\nH 1\nCNOT 1 2\n")
        c = cli.load_circuit(str(p))
        assert c.depth == 2
        assert c.name == "c"


def test_resolve_tol_defaults():
    assert cli._resolve_tol("qft4", None) == 1e-5
    assert cli._resolve_tol("toffoli", None) == 1e-7
    assert cli._resolve_tol("qft4", 3e-4) == 3e-4


@pytest.mark.parametrize(
    "command, option",
    [
        ("validate", "--tol"),
        ("validate", "--max-steps"),
        ("validate", "--input"),
        ("sweep", "--input"),
        ("lindblad", "--omega"),
        ("lindblad", "--tol"),
        ("lindblad", "--max-steps"),
    ],
)
def test_option_the_command_does_not_read_is_rejected(command, option, capsys):
    assert main([command, "--circuit", "toffoli", option, "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: unrecognized arguments: {option} 1\n"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: oqw run")


CIRCUIT_FILES = {
    "40": "qubits 40\nH 1\n",
    "13": "qubits 13\nH 13\n",
    "empty": "# no slices\nqubits 3\n",
    "pi0": "qubits 2\nCP 1 2 pi/0\n",
    "pi00": "qubits 2\nH 1\nP 2 -pi/00\n",
    "nines": f"qubits 1\nP 1 pi/{'9' * 400}\n",
    "digits": f"qubits 1\nH 1\nP 1 pi/{'7' * 5000}\n",
    "arabic12": "qubits \u0661\u0662\nH 1\n",
    "under10": "qubits 12\nH 1_0\n",
    "under15": "qubits 2\nH 1\nP 2 1_5.5\n",
    "pi4": "qubits 3\nCP 1 3 pi/\u0664\n",
    "wide5": "qubits 1\nP 1 \uff15\n",
}


@pytest.mark.parametrize(
    "argv, named",
    [
        (["run", "--circuit", "toffoli", "--tol", "nan"], "tol"),
        (["run", "--circuit", "toffoli", "--tol", "inf"], "tol"),
        (["run", "--circuit", "toffoli", "--max-steps", "-3"], "max_steps"),
        (["sweep", "--circuit", "qft3", "--omega", "0.9:0.5:0.1"], "empty"),
        (["sweep", "--circuit", "qft3", "--omega", "0.5:inf:0.1"], "finite"),
        (["lindblad", "--circuit", "toffoli", "--max-time", "inf"], "max_time"),
        (["lindblad", "--circuit", "toffoli", "--dt", "nan"], "dt"),
        (["lindblad", "--circuit", "toffoli", "--record-every", "inf"], "observe_every"),
        (["lindblad", "--circuit", "toffoli", "--max-time", "-5"], "max_time"),
        (["lindblad", "--circuit", "toffoli", "--stop-tol", "-1"], "stop_tol"),
        (["lindblad", "--circuit", "toffoli", "--record-every", "0"], "observe_every"),
        (["lindblad", "--circuit", "toffoli", "--record-every", "-1"], "observe_every"),
        (["run", "--circuit", "@40"], "1 to 12 qubits"),
        (["validate", "--circuit", "@13"], "1 to 12 qubits"),
        (["lindblad", "--circuit", "@13"], "1 to 12 qubits"),
        (["validate", "--circuit", "@empty"], "at least one slice"),
        (["run", "--circuit", "@dir"], "directory"),
        (["validate", "--circuit", "@pi0"], "line 2: bad phase literal"),
        (["validate", "--circuit", "@pi00"], "line 3: bad phase literal"),
        (["validate", "--circuit", "@nines"], "line 2: bad phase literal"),
        (["validate", "--circuit", "@digits"], "line 3: bad phase literal"),
        (["validate", "--circuit", "@arabic12"], "line 1: expected 'qubits <n>' header"),
        (["run", "--circuit", "@under10"], "line 2: bad qubit index in 'H 1_0'"),
        (["sweep", "--circuit", "@under15"], "line 3: bad phase literal '1_5.5'"),
        (["lindblad", "--circuit", "@pi4"], "line 2: bad phase literal"),
        (["validate", "--circuit", "@wide5"], "line 2: bad phase literal"),
        (["lindblad", "--circuit", "toffoli", "--dt", "1e-10", "--max-time", "1e308"],
         "max_time/dt"),
        (["lindblad", "--circuit", "toffoli", "--dt", "1e-300", "--record-every", "1e300",
          "--max-time", "0"], "observe_every/dt"),
    ],
)
def test_non_finite_or_empty_input_is_an_input_error(argv, named, tmp_path, capsys):
    # "@name" stands for a circuit file of CIRCUIT_FILES, "@dir" for a directory
    for name, text in CIRCUIT_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    (tmp_path / "dir").mkdir()
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("step", ["1e-12", "1e-320"])
def test_too_fine_grid_is_an_input_error_before_it_is_built(step, tmp_path, capsys):
    # at step 1e-320 the point count overflows to inf; at 1e-12 it is 4.5e11
    out = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        code = main(["sweep", "--circuit", "qft3", "--omega", f"0.5:0.95:{step}",
                     "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"at most {MAX_GRID_POINTS} points" in err
    assert "Traceback" not in err
    assert peak < 1 << 20
    assert not out.exists()


def test_run_builds_only_the_last_block(tmp_path):
    # 8 qubits × 24 slices, d = 256: one d×d matrix is 1 MiB, and the
    # compiled slices, made inside the traced call, 24 MiB.  A lift of the
    # (T+1, d, d) final state alone would take 25 MiB; run holds the slices,
    # the product of the circuit for the target and node T's block, so its
    # peak may be at most the slices plus eight d×d matrices (measured:
    # 30.2 MiB).
    circuit = tmp_path / "c8x24.txt"
    circuit.write_text(render_circuit(seeded_circuit(192, 8, 24)))
    out = tmp_path / "run.csv"
    tracemalloc.start()
    try:
        code = main(["run", "--circuit", str(circuit), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    _, summary = read_run_csv(out)
    assert abs(summary["fidelity"] - 1.0) <= 1e-12
    assert peak <= 32 * 2**20, peak / 2**20


def test_lindblad_holds_the_compile_and_a_few_diagonals(tmp_path):
    # 8 qubits × 16 slices with resets, from all ones: the compiled slices,
    # made inside the traced call, are 16 MiB, built from d × d temporaries
    # of 1 MiB.  The run holds only (17, 256) float arrays of 34 KiB, so the
    # peak may be at most the slices plus four d × d matrices and eight
    # diagonals (measured: 18.0 MiB; 36.2 MiB with a dense (17, 256, 256)
    # complex input stack and its lowering).
    circuit = tmp_path / "c8x16.txt"
    circuit.write_text(render_circuit(seeded_circuit(96, 8, 16)))
    out = tmp_path / "lindblad.csv"
    tracemalloc.start()
    try:
        code = main(["lindblad", "--circuit", str(circuit), "--input", "11111111",
                     "--include-reset", "--dt", "0.1", "--max-time", "1", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out.read_text().count("\n1,0,") == 1  # the sample at t = 1, after 10 steps
    block, diagonal = 256 * 256 * 16, 17 * 256 * 8
    assert peak <= 20 * block + 8 * diagonal, peak / 2**20


def test_lindblad_with_reset_at_twelve_qubits_fits_in_three_gigabytes(tmp_path):
    # seeded_circuit(12, 12, 4): the four compiled slices are 256 MiB each.
    # Under a 3 GB address-space limit, set in the child only, the run ends
    # with exit 0 or 1 and no traceback, its peak resident set being the
    # compile (measured: 1820 MB).  A dense (5, 4096, 4096) complex input
    # stack on top of the slices ended in an _ArrayMemoryError traceback.
    circuit = tmp_path / "s12.circ"
    circuit.write_text(render_circuit(seeded_circuit(12, 12, 4)))
    src = str(Path(oqwalk.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    limit = 3_000_000 * 1024
    argv = [sys.executable, "-m", "oqwalk", "lindblad", "--circuit", str(circuit),
            "--include-reset", "--dt", "0.1", "--max-time", "0.1",
            "--out", str(tmp_path / "s12.csv")]
    with open(tmp_path / "stderr.txt", "w+", encoding="utf-8") as err:
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                preexec_fn=lambda: resource.setrlimit(
                                    resource.RLIMIT_AS, (limit, limit)))
        _, status, usage = os.wait4(proc.pid, 0)  # the child's own peak
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    assert proc.returncode in (0, 1), stderr
    assert "Traceback" not in stderr, stderr
    assert usage.ru_maxrss <= 2_200_000, usage.ru_maxrss  # kB


@pytest.mark.parametrize("key", sorted(WALK_REFERENCE))
def test_run_reproduces_the_recorded_walk_reference(key, tmp_path):
    # node populations do not depend on the gates: any circuit of depth T will do
    depth, omega, tol = re.fullmatch(r"T=(\d+) omega=(\S+) tol=(\S+)", key).groups()
    circuit = tmp_path / "chain.txt"
    circuit.write_text("qubits 1\n" + "H 1\n" * int(depth))
    out = tmp_path / "run.csv"
    code = main(["run", "--circuit", str(circuit), "--omega", omega, "--tol", tol,
                 "--out", str(out)])
    expected = WALK_REFERENCE[key]
    assert code == (0 if expected["converged"] else 1)
    _, summary = read_run_csv(out)
    assert summary["steps"] == expected["steps"]
    assert summary["converged"] == str(expected["converged"]).lower()
    assert abs(summary["detection"] - expected["final_detection"]) <= 1e-9


def test_unwritable_out_is_an_input_error(tmp_path, capsys):
    argv = ["run", "--circuit", "qft3", "--omega", "1.0", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_module_entry_point(tmp_path):
    # ``python -m oqwalk`` in a fresh interpreter, on an uninstalled checkout
    src = str(Path(oqwalk.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def oqw(*argv):
        return subprocess.run([sys.executable, "-m", "oqwalk", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    ok = oqw("validate", "--circuit", "toffoli")
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout and not ok.stderr
    missing = oqw("validate", "--circuit", str(tmp_path / "missing.txt"))
    assert missing.returncode == 2
    assert missing.stderr.startswith("error:")
    assert "Traceback" not in missing.stderr


def test_two_main_calls_build_one_parser(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    for _ in range(2):
        assert main(["validate", "--circuit", "qft3"]) == 0
    assert built.count("oqw") == 1


def test_import_builds_no_parser():
    # a parser built at import would be paid by every fresh ``oqw`` process
    # before it reads its command line
    src = str(Path(oqwalk.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import oqwalk.cli\n"
        "print(len(built))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


#: Pairs of command lines that differ in one option, and would print each
#: other's output if an option of one call leaked into the next.  ``run``
#: prints the same CSV for every input of the right width, so its input is
#: three bits on a four-qubit circuit: rejected, where the default runs.
LEAK_PAIRS = {
    "include-reset": (
        ["lindblad", "--circuit", "toffoli", "--dt", "0.4", "--max-time", "2",
         "--include-reset"],
        ["lindblad", "--circuit", "toffoli", "--dt", "0.4", "--max-time", "2"],
    ),
    "input": (
        ["run", "--circuit", "qft4", "--max-steps", "7", "--input", "101"],
        ["run", "--circuit", "qft4", "--max-steps", "7"],
    ),
    "tol": (
        ["run", "--circuit", "qft3", "--tol", "1e-3"],
        ["run", "--circuit", "qft3"],
    ),
    "rejected": (
        ["sweep", "--circuit", "qft3", "--omega", "1", "--input", "1"],
        ["sweep", "--circuit", "qft3", "--omega", "1"],
    ),
}


@pytest.mark.parametrize("pair", sorted(LEAK_PAIRS))
def test_options_do_not_leak_between_calls(pair, capsys):
    def call(argv):
        code = main(argv)
        return (code, *capsys.readouterr())

    a, b = LEAK_PAIRS[pair]
    a_first = call(a), call(b)
    b_first = call(b), call(a)
    assert a_first == b_first[::-1]
    assert a_first[0] != a_first[1]  # the option shows in the output
    if pair in ("input", "rejected"):
        assert a_first[0][0] == 2 and a_first[1][0] in (0, 1)


def test_a_patched_command_takes_effect_after_the_first_call(monkeypatch, capsys):
    argv = ["run", "--circuit", "qft3", "--omega", "1"]
    assert main(argv) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_run", lambda args: seen.append(args.circuit) or 0)
    assert main(argv) == 0
    assert seen == ["qft3"]
    assert capsys.readouterr().out.startswith("step,node,probability")  # the first call


@pytest.mark.parametrize("max_steps, products", [("7", 0), ("100000", 1)])
def test_run_builds_its_fidelity_target_only_when_the_fidelity_is_defined(
    max_steps, products, monkeypatch, tmp_path
):
    # seven steps leave toffoli's last node, T = 13, empty: the fidelity is nan
    calls = []
    product = cli.circuit_product
    monkeypatch.setattr(cli, "circuit_product", lambda c: calls.append(c) or product(c))
    out = tmp_path / "run.csv"
    main(["run", "--circuit", "toffoli", "--max-steps", max_steps, "--out", str(out)])
    _, summary = read_run_csv(out)
    assert math.isnan(summary["fidelity"]) == (products == 0)
    assert len(calls) == products
