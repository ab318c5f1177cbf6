import numpy as np
import pytest

from oqwalk import cli
from oqwalk.cli import RunConfig, fmt, main, parse_omega_spec


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

    def test_respects_thread_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OQW_THREADS", "2")
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--circuit", "qft3", "--omega", "0.6:0.9:0.1",
            "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().splitlines()) == 5

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

    def test_capacity_exceeded(self, capsys):
        assert main(["lindblad", "--circuit", "qft4"]) == 2


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


def test_run_config_defaults():
    cfg = RunConfig(circuit="qft4")
    assert cli._resolve_tol(cfg) == 1e-5
    cfg2 = RunConfig(circuit="toffoli")
    assert cli._resolve_tol(cfg2) == 1e-7


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
    ],
)
def test_non_finite_or_empty_input_is_an_input_error(argv, named, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()
