import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dense_chain import dense_chain
from dense_lindblad import source_gram, target_step
from oqwalk import _kernels
from oqwalk.circuits import BUILTIN_CIRCUITS, Circuit, Gate
from oqwalk.walk import BlockState, ChainParams, OpenQuantumWalk, step
from test_linalg import trace_norm


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


def scatter_add_step(b_ops, b_dag, src, dst, blocks):
    out = np.zeros_like(blocks)
    np.add.at(out, dst, b_ops @ blocks[src] @ b_dag)
    return out


class TestStepKernels:
    def test_numpy_path_matches_reference(self):
        rng = np.random.default_rng(0)
        args = random_edge_problem(rng)
        assert np.allclose(
            target_step(*args), reference_step(*args), atol=1e-13
        )

    def test_repeated_targets_accumulate(self):
        rng = np.random.default_rng(2)
        b_ops, b_dag, src, dst, blocks = random_edge_problem(rng, num_edges=6)
        dst[:] = 0  # all edges funnel into one node
        got = target_step(b_ops, b_dag, src, dst, blocks)
        assert np.allclose(
            got, reference_step(b_ops, b_dag, src, dst, blocks), atol=1e-13
        )

    @pytest.mark.parametrize("circuit", ["toffoli", "qft4", "deep"])
    @pytest.mark.parametrize("omega", [0.5, 0.8])
    def test_chain_step_is_bitwise_scatter_add(self, circuit, omega):
        # the step's CSV bytes rest on this exact equality with an
        # edge-by-edge scatter-add over the edges in (source, target) order
        if circuit == "deep":  # one qubit, 3000 slices: many nodes, small blocks
            circuit = Circuit(1, ((Gate("H", (1,)),), (Gate("T", (1,)),)) * 1500)
        else:
            circuit = BUILTIN_CIRCUITS[circuit]()
        walk = dense_chain(circuit, ChainParams(omega))
        rng = np.random.default_rng(5)
        n, d = walk.num_nodes, walk.dim
        blocks = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
        key = np.lexsort((walk._dst, walk._src))
        edges = (walk._b_ops[key], walk._b_dag[key], walk._src[key], walk._dst[key])
        assert np.array_equal(
            step(walk, BlockState(blocks)).blocks, scatter_add_step(*edges, blocks)
        )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_edge_order_is_bitwise_edge_by_edge_scatter_add(self, data):
        # edges in any order, targets repeated or never hit, and -0.0
        # entries planted in coins and blocks: each target must sum its
        # terms in edge order from +0.0, as one add per edge does
        n = data.draw(st.integers(1, 6), label="nodes")
        d = data.draw(st.integers(1, 4), label="dim")
        e = data.draw(st.integers(0, 24), label="edges")
        nodes = hnp.arrays(np.int64, e, elements=st.integers(0, n - 1))
        src, dst = data.draw(nodes, label="src"), data.draw(nodes, label="dst")
        entries = st.sampled_from([-0.0, 0.0]) | st.floats(-2.0, 2.0, width=32)

        def complex_stack(shape, label):
            parts = data.draw(hnp.arrays(np.float64, (2, *shape), elements=entries),
                              label=label)
            out = np.empty(shape, dtype=np.complex128)
            out.real, out.imag = parts
            return out

        b_ops = complex_stack((e, d, d), "coins")
        b_dag = np.ascontiguousarray(b_ops.conj().transpose(0, 2, 1))
        blocks = complex_stack((n, d, d), "blocks")
        terms = b_ops @ blocks[src] @ b_dag
        expected = np.zeros_like(blocks)
        for k in range(e):
            expected[dst[k]] += terms[k]
        got = target_step(b_ops, b_dag, src, dst, blocks)
        assert got.shape == blocks.shape and got.dtype == blocks.dtype
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 6), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @example(n=3, d=3, seed=418034)
    def test_step_of_a_normalized_walk_is_trace_preserving_and_positive(self, n, d, seed):
        # 1 to 3 out-edges per source, in shuffled order, each source's
        # coins the d×d blocks of one (k·d, d) matrix with orthonormal
        # columns, so that their sum of B†B is the identity.  (Rescaling
        # Gaussian coins by their Gram matrix's inverse square root loses
        # accuracy with its condition number: 2.9e-11 on the example.)
        rng = np.random.default_rng(seed)

        def gaussian(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        edges = []
        for source in range(n):
            coins = np.linalg.qr(gaussian(rng.integers(1, 4) * d, d))[0].reshape(-1, d, d)
            edges += [(source, rng.integers(0, n), c) for c in coins]
        shuffled = [edges[k] for k in rng.permutation(len(edges))]
        src, dst = (np.array(column, dtype=np.int64) for column in list(zip(*shuffled))[:2])
        b_ops = np.array([coin for _, _, coin in shuffled])
        b_dag = np.ascontiguousarray(b_ops.conj().transpose(0, 2, 1))
        gram = source_gram(b_ops, b_dag, src, dst, n)
        assert np.abs(gram - np.eye(d)).max() < 1e-12
        a = gaussian(n, d, d)
        blocks = a @ a.conj().transpose(0, 2, 1)
        blocks /= np.einsum("nii->", blocks).real
        out = target_step(b_ops, b_dag, src, dst, blocks)
        assert abs(np.einsum("nii->", out) - 1) < 1e-12
        assert np.abs(out - out.conj().transpose(0, 2, 1)).max() < 1e-14
        assert np.linalg.eigvalsh(out).min() >= -1e-12

    def test_random_edges_are_bitwise_scatter_add(self):
        rng = np.random.default_rng(7)
        args = random_edge_problem(rng, num_nodes=6, num_edges=40)
        b_ops, _, src, dst, blocks = args
        expected = scatter_add_step(*args)
        assert np.array_equal(target_step(*args), expected)
        # a walk's stored table, whose daggers are conjugated in place, gives
        # the bits of a scatter with copied daggers
        walk = OpenQuantumWalk(6, 4, {(int(s), int(d)): b for s, d, b in zip(src, dst, b_ops)})
        copied = np.ascontiguousarray(walk._b_ops.conj().transpose(0, 2, 1))
        expected = scatter_add_step(walk._b_ops, copied, walk._src, walk._dst, blocks)
        assert np.array_equal(step(walk, BlockState(blocks)).blocks, expected)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), d=st.sampled_from([1, 2, 8]))
    def test_walk_step_is_bitwise_edge_by_edge_scatter(self, data, d):
        # a table keyed in random order, with targets that repeat: the walk's
        # stored index is its definition, read-only, and its step gives the
        # bits of one add per edge in key order
        n = data.draw(st.integers(1, 5), label="nodes")
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        keys = data.draw(st.lists(pairs, min_size=1, max_size=12, unique=True), label="keys")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

        def gaussian(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        walk = OpenQuantumWalk(n, d, {key: gaussian(d, d) for key in keys})
        src, dst = np.array(sorted(keys)).T
        assert np.array_equal(walk._scatter, (dst[:, None] * d * d + np.arange(d * d)).ravel())
        assert walk._scatter.dtype == np.intp and not walk._scatter.flags.writeable
        blocks = gaussian(n, d, d)
        copied = np.ascontiguousarray(walk._b_ops.conj().transpose(0, 2, 1))
        terms = walk._b_ops @ blocks[src] @ copied
        expected = np.zeros_like(blocks)
        for e, t in enumerate(dst):
            expected[t] += terms[e]
        assert step(walk, BlockState(blocks)).blocks.tobytes() == expected.tobytes()


class TestLindbladKernels:
    def test_paths_agree(self):
        # the block generator with a diagonal damping G, given as a column
        # and a row, against dense products with diag(G) and a per-jump,
        # per-node reference loop, on an edge table with repeated and
        # unsorted (src, dst) pairs
        rng = np.random.default_rng(3)
        b_ops, b_dag, src, dst, blocks = random_edge_problem(rng, num_edges=12)
        blocks = blocks + blocks.conj().transpose(0, 2, 1)
        g = -0.5 * rng.integers(0, 3, size=blocks.shape[1])
        expected = np.diag(g) @ blocks + blocks @ np.diag(g)
        for e in range(len(src)):
            expected[dst[e]] += b_ops[e] @ blocks[src[e]] @ b_dag[e]
        jump = target_step(b_ops, b_dag, src, dst, blocks)
        got = _kernels.lindblad_rhs_kernel(jump, g[:, None], g[None, :], blocks)
        assert np.allclose(got, expected, atol=1e-12)


class TestStackedTraceNorm:
    def test_matches_per_block_trace_norm(self):
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
        stack = stack + stack.conj().transpose(0, 2, 1)
        expected = sum(trace_norm(m) for m in stack)
        assert _kernels.stacked_trace_norm(stack) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        parts=st.integers(1, 5).flatmap(
            lambda n: st.integers(1, 6).flatmap(
                lambda d: hnp.arrays(
                    np.float64, (2, n, d, d), elements=st.floats(-1.0, 1.0, width=32)
                )
            )
        ),
        definite=st.booleans(),
    )
    def test_traces_bound_it_from_below(self, parts, definite):
        # the bound run_until_converged skips steps by: Σ|Tr Δ_n| ≤ Σ‖Δ_n‖₁,
        # with equality when each block is semidefinite
        a = parts[0] + 1j * parts[1]
        if definite:
            signs = np.where(np.arange(a.shape[0]) % 2, -1.0, 1.0)[:, None, None]
            diff = signs * (a @ a.conj().transpose(0, 2, 1))
        else:
            diff = a + a.conj().transpose(0, 2, 1)
        diagonal = np.einsum("nii->ni", diff).real
        traces = np.abs(diagonal.sum(axis=1)).sum()
        norm = _kernels.stacked_trace_norm(diff)
        # the rounding margin of run_until_converged, whose diagonals total 2
        rounding = 64 * diff.shape[1] * np.finfo(float).eps * np.abs(diagonal).sum() / 2
        assert traces <= norm * (1 + 1e-6) + rounding


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
