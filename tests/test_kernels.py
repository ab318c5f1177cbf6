import os
import subprocess
import sys

import numpy as np
import pytest

from oqwalk import _kernels
from oqwalk.linalg import trace_norm


def random_edge_problem(rng, num_nodes=5, dim=4, num_edges=9):
    blocks = rng.normal(size=(num_nodes, dim, dim)) + 1j * rng.normal(
        size=(num_nodes, dim, dim)
    )
    b_ops = rng.normal(size=(num_edges, dim, dim)) + 1j * rng.normal(
        size=(num_edges, dim, dim)
    )
    b_dag = np.ascontiguousarray(b_ops.conj().transpose(0, 2, 1))
    src = rng.integers(0, num_nodes, num_edges).astype(np.int64)
    dst = rng.integers(0, num_nodes, num_edges).astype(np.int64)
    return (
        np.ascontiguousarray(b_ops),
        b_dag,
        src,
        dst,
        np.ascontiguousarray(blocks),
    )


def reference_step(b_ops, b_dag, src, dst, blocks):
    out = np.zeros_like(blocks)
    for e in range(b_ops.shape[0]):
        out[dst[e]] += b_ops[e] @ blocks[src[e]] @ b_dag[e]
    return out


class TestStepKernels:
    def test_numpy_path_matches_reference(self):
        rng = np.random.default_rng(0)
        args = random_edge_problem(rng)
        assert np.allclose(
            _kernels.step_blocks(*args), reference_step(*args), atol=1e-13
        )

    def test_repeated_targets_accumulate(self):
        rng = np.random.default_rng(2)
        b_ops, b_dag, src, dst, blocks = random_edge_problem(rng, num_edges=6)
        dst[:] = 0  # all edges funnel into one node
        got = _kernels.step_blocks(b_ops, b_dag, src, dst, blocks)
        assert np.allclose(
            got, reference_step(b_ops, b_dag, src, dst, blocks), atol=1e-13
        )


class TestLindbladKernels:
    def test_paths_agree(self):
        rng = np.random.default_rng(3)
        k, d = 4, 6
        l_ops = np.ascontiguousarray(
            rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
        )
        l_dag = np.ascontiguousarray(l_ops.conj().transpose(0, 2, 1))
        damp = 0.5 * np.einsum("kij,kjl->il", l_dag, l_ops)
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = rho + rho.conj().T
        expected = -(damp @ rho + rho @ damp)
        for j in range(k):  # per-jump reference loop
            expected += l_ops[j] @ rho @ l_dag[j]
        got = _kernels.lindblad_rhs_kernel(l_ops, l_dag, damp, rho)
        assert np.allclose(got, expected, atol=1e-12)


class TestStackedTraceNorm:
    def test_matches_per_block_trace_norm(self):
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
        stack = stack + stack.conj().transpose(0, 2, 1)
        expected = sum(trace_norm(m) for m in stack)
        assert _kernels.stacked_trace_norm(stack) == pytest.approx(expected, rel=1e-12)


def test_fresh_import_runs_numpy_only():
    code = (
        "import sys, oqwalk, oqwalk.cli; "
        "print('numba' in sys.modules, oqwalk.USING_NUMBA is False)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={
            "PATH": os.environ.get("PATH", os.defpath),
            "PYTHONPATH": os.pathsep.join(sys.path),
        },
        check=True,
    )
    assert out.stdout.split() == ["False", "True"]
