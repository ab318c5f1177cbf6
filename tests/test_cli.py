import numpy as np
import pytest

from oqwalk import circuits, cli
from oqwalk.cli import fmt, main, parse_omega_spec


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

    def test_trace_drift_is_a_numeric_failure(self, tmp_path, monkeypatch, capsys):
        build = cli.wk.build_dqc_chain

        def leaky_chain(circuit, params):
            chain = build(circuit, params)
            coins = {edge: 1.01 * op for edge, op in chain.transitions.items()}
            return cli.wk.OpenQuantumWalk(chain.num_nodes, chain.dim, coins)

        monkeypatch.setattr(cli.wk, "build_dqc_chain", leaky_chain)
        code = main([
            "run", "--circuit", "toffoli", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: trace drifted")
        assert "Traceback" not in err

    def test_input_length_checked(self, tmp_path, capsys):
        code = main([
            "run", "--circuit", "toffoli", "--omega", "0.5", "--input", "11",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2


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

    @pytest.mark.parametrize("argv", [
        ["sweep", "--omega", "0.5:0.95:0.05"],
        ["validate"],
    ])
    def test_compiles_each_slice_once(self, argv, tmp_path, monkeypatch):
        compiles = []
        compile_slice = circuits.slice_unitary

        def counted(gates, num_qubits):
            compiles.append(gates)
            return compile_slice(gates, num_qubits)

        monkeypatch.setattr(circuits, "slice_unitary", counted)
        assert main([*argv, "--circuit", "toffoli", "--out", str(tmp_path / "x")]) == 0
        assert len(compiles) == circuits.toffoli13().depth

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
        ("lindblad", "--omega"),
        ("lindblad", "--tol"),
        ("lindblad", "--max-steps"),
    ],
)
def test_option_the_command_does_not_read_is_rejected(command, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--circuit", "toffoli", option, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


CIRCUIT_FILES = {
    "40": "qubits 40\nH 1\n",
    "13": "qubits 13\nH 13\n",
    "empty": "# no slices\nqubits 3\n",
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
    ],
)
def test_non_finite_or_empty_input_is_an_input_error(argv, named, tmp_path, capsys):
    # "@name" stands for a circuit file of CIRCUIT_FILES, "@dir" for a directory
    for name, text in CIRCUIT_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    (tmp_path / "dir").mkdir()
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err
    assert not out.exists()


def test_unwritable_out_is_an_input_error(tmp_path, capsys):
    argv = ["run", "--circuit", "qft3", "--omega", "1.0", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
