"""Tests of the benchmark itself: input generation, output checks, tracing.

Run from the root of a checkout:  python3 -m pytest -q perfbench
The smoke passes run each workload's full task list once, traced (about a
minute in total).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

import run
import tracing
import worker  # puts the checkout's src first on sys.path
import workloads
from tracing import Span

import oqwalk.cli
from oqwalk.circuits import parse_circuit

ROOT = Path(__file__).resolve().parent.parent

REF = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))

#: Wrapped functions that a pass of each workload must call at least once.
FIRES = {
    "fig-sweep": {
        "kernels.step_blocks", "kernels.stacked_trace_norm", "walk.step",
        "walk.block_diff_norm", "walk.BlockState.probabilities",
        "walk.run_until_converged", "walk.build_dqc_chain", "circuits.circuit_unitaries",
        "circuits.circuit_product", "linalg.frobenius", "cli.main", tracing.POOL_SPAN,
    },
    "lindblad-xcheck": {
        "kernels.lindblad_rhs_kernel", "lindblad.integrate", "lindblad.node_marginals",
        "lindblad.build_dqc_lindblad", "linalg.frobenius", "circuits.circuit_unitaries",
        "cli.main",
    },
    "circuit-files": {
        "circuits.parse_circuit", "circuits.circuit_unitaries", "circuits.circuit_product",
        "walk.build_dqc_chain", "walk.validate", "kernels.step_blocks",
        "kernels.stacked_trace_norm", "walk.run_until_converged", "linalg.frobenius",
        "cli.main",
    },
}


def test_circuit_files_are_deterministic_per_seed():
    first = workloads.generate_circuit_files(7)
    assert first == workloads.generate_circuit_files(7)
    assert first != workloads.generate_circuit_files(8)
    for (bits, text), (qubits, slices) in zip(first, workloads.CIRCUIT_SHAPES):
        circuit = parse_circuit(text)
        assert (circuit.num_qubits, circuit.depth) == (qubits, slices)
        assert len(bits) == qubits
        kinds = {g.kind for s in circuit.slices for g in s}
        assert kinds <= {"H", "X", "S", "T", "R", "CNOT", "CP"}


def test_task_lists_are_deterministic_per_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.build_tasks(workload, 3, tmp_path / "a")
        b = workloads.build_tasks(workload, 3, tmp_path / "b")
        assert [t.kind for t in a] == [t.kind for t in b]
        assert [str(t.argv).replace("/a/", "/b/") for t in a] == [str(t.argv) for t in b]


def test_every_target_and_its_imported_aliases_are_wrapped_and_restored():
    originals = (oqwalk.cli.circuit_product, oqwalk.walk.circuit_unitaries,
                 oqwalk.lindblad.frobenius, oqwalk.walk.BlockState.probabilities)
    inst = tracing.Installed(tracing.Tracer())
    try:
        for alias in ("oqwalk.cli.circuit_product", "oqwalk.cli.circuit_unitaries",
                      "oqwalk.cli.parse_circuit", "oqwalk.walk.circuit_unitaries",
                      "oqwalk.lindblad.circuit_unitaries", "oqwalk.lindblad.frobenius",
                      "oqwalk.walk.frobenius", "oqwalk.cli.frobenius",
                      "oqwalk._kernels.step_blocks", "oqwalk.walk.BlockState.probabilities"):
            assert inst.wrapped.get(alias) == 1, alias
        assert oqwalk.cli.circuit_product is not originals[0]
    finally:
        inst.remove()
    assert (oqwalk.cli.circuit_product, oqwalk.walk.circuit_unitaries,
            oqwalk.lindblad.frobenius, oqwalk.walk.BlockState.probabilities) == originals


def test_self_time_arithmetic_on_a_nested_two_thread_trace():
    main, a, b = 1, 2, 3
    spans = [
        Span(1, tracing.TASK_SPAN, 0.0, 10.0, 0, main, 1, 0),
        Span(2, "cli.main", 1.0, 9.0, 1, main, 1, 0),
        Span(3, tracing.POOL_SPAN, 2.0, 8.0, 2, main, 1, 0),
        # pool threads: roots link to the pool span but do not reduce its self time
        Span(4, "walk.run_until_converged", 2.5, 7.0, 3, a, 1, 0),
        Span(5, "walk.step", 3.0, 4.0, 4, a, 1, 0),
        Span(6, "walk.step", 3.5, 4.5, 4, a, 1, 0),  # overlaps its sibling: union counts once
        Span(7, "walk.step", 5.0, 6.0, 4, a, 1, 0),
        Span(8, "walk.run_until_converged", 3.0, 8.0, 3, b, 1, 0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 2.0, 2: 2.0, 3: 6.0, 4: 2.0, 5: 1.0, 6: 1.0, 7: 1.0, 8: 5.0})
    m = tracing.summarize(spans, [(1, "kernels.step_blocks.flops", 5.0)], 2, main)[1]
    assert m["harness.accounted_s"] == pytest.approx(10.0)  # the whole pass
    assert m["walk.step.calls"] == 3 and m["walk.step.self_s"] == pytest.approx(3.0)
    assert m["walk.run_until_converged.self_s"] == pytest.approx(7.0)
    assert m["cli.sweep.pool_busy_ratio"] == pytest.approx((4.5 + 5.0) / (6.0 * 2))
    assert m["kernels.step_blocks.flops"] == 5.0


def test_times_are_each_task_fastest_time_over_the_host_factor():
    passes = [{"task_s": [1.0, 5.0], "steps": 98, "steady_err": 0.1},
              {"task_s": [1.5, 4.0], "steps": 98, "steady_err": 0.1},
              {"task_s": [0.9, 6.0], "steps": 98, "steady_err": 0.1}]
    assert run.fastest_pass_s(passes) == pytest.approx(0.9 + 4.0)
    slow = 2 * run.NUMPY_IMPORT_REF_S
    report = {"passes": passes, "peak_rss_mb": 50.0, "setup_samples_s": [0.3, 0.2],
              "numpy_import_samples_s": [slow * 1.5, slow]}
    m = run.end_to_end(report, 1.0)
    assert m["wall_s"] == pytest.approx(4.9 / 2) and m["setup_s"] == pytest.approx(0.1)
    assert m["steps_per_s"] == pytest.approx(98 / 2.45)


def test_tracer_keeps_one_parent_stack_per_thread():
    tracer = tracing.Tracer()
    tracer.open("outer")
    ready = threading.Event()

    def pool_job():
        tracer.open("job")
        tracer.open("inner")
        tracer.close()
        tracer.close()
        ready.set()

    t = threading.Thread(target=pool_job)
    t.start()
    t.join(timeout=10)
    assert ready.is_set() and not t.is_alive()
    tracer.close()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["job"].parent == by_name["outer"].id  # linked across threads
    assert by_name["inner"].parent == by_name["job"].id
    assert by_name["job"].thread != by_name["outer"].thread


def test_a_wrong_output_fails_its_check(tmp_path):
    task = workloads.build_tasks("circuit-files", 1, tmp_path)[1]
    assert (task.kind, task.omega, task.depth) == ("run", 1.0, 24)
    assert oqwalk.cli.main(list(task.argv)) == 0
    assert workloads.check(task, 0, "", REF).errors == []
    assert workloads.check(task, 1, "", REF).errors  # a non-zero exit fails
    out = Path(task.out)
    lines = out.read_text().splitlines()
    lines[-1] = "26" + lines[-1][2:]  # one step more than T+1
    out.write_text("\n".join(lines) + "\n")
    assert workloads.check(task, 0, "", REF).errors


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One traced pass of every workload: (pass result, layer summary)."""
    out = {}
    for workload in workloads.WORKLOADS:
        workdir = tmp_path_factory.mktemp(workload)
        tasks = workloads.build_tasks(workload, 1, workdir)
        tracer = tracing.Tracer()
        inst = tracing.Installed(tracer)
        try:
            result = worker.run_pass(tasks, REF, tracer, 1)
        finally:
            inst.remove()
        layers = tracing.summarize(tracer.spans, tracer.counts, 2, tracer.main_thread)[1]
        out[workload] = (result, layers)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_is_correct_fires_its_layers_and_accounts_for_its_time(smoke, workload):
    result, layers = smoke[workload]
    assert result["failed"] == 0, result["errors"]
    for name in FIRES[workload]:
        assert layers.get(f"{name}.calls", 0) > 0, name
    # main-thread self times add up to the traced pass, up to the loop between tasks
    assert abs(result["wall_s"] - layers["harness.accounted_s"]) < 0.01 * result["wall_s"]


def test_every_per_layer_metric_is_written(smoke):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = set()
    for result, layers in smoke.values():
        names |= set(run.per_layer({"passes": [result], "traced_passes": [result],
                                    "layers": [layers]}))
    assert {m["name"] for m in spec["per_layer"]} <= names
    fired = set().union(*FIRES.values())
    assert {tracing.layer_name(m, p) for m, p, _ in tracing.TARGETS} <= fired
