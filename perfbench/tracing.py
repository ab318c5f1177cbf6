"""Span tracing for the benchmark's per-layer metrics.

The benchmark wraps the public functions of each oqwalk module from the
outside: every module attribute bound to a target function object, including
the aliases other modules import by name, is replaced by a wrapper that
records one span per call.  Spans are kept in memory and written out when
the run ends.  The parent stack is per thread, because ``sweep`` runs its
grid cells in pool threads; a span that opens on an empty pool-thread stack
names the innermost open span of the main thread (the sweep pool span) as
its parent, but self time only subtracts children of the same thread.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import types
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int  # 0 for a root
    thread: int
    pass_no: int
    task_no: int


class Tracer:
    """In-memory span recorder shared by all threads of one worker."""

    def __init__(self):
        self.spans: list[Span] = []
        #: (pass_no, metric name, value) added by cost models of kernels
        self.counts: list[tuple[int, str, float]] = []
        #: (pass_no, task_no) of the task the harness is running
        self.task = (0, 0)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.main_thread = threading.get_ident()
        self._main_stack: list = []

    def _stack(self) -> list:
        if threading.get_ident() == self.main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> None:
        stack = self._stack()
        link = stack or self._main_stack
        parent = link[-1][0] if link else 0
        stack.append((next(self._ids), name, parent, perf_counter()))

    def close(self) -> None:
        end = perf_counter()
        sid, name, parent, start = self._stack().pop()
        self.spans.append(Span(sid, name, start, end, parent,
                               threading.get_ident(), *self.task))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(Span._fields) + "\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")


# ---------------------------------------------------------------------------
# Wrapped functions
# ---------------------------------------------------------------------------

def _step_blocks_cost(result, b_ops, b_dag, src, dst, blocks):
    """Computed, not measured: two complex d×d products per edge, 8d³ flops each."""
    edges, d = b_ops.shape[0], b_ops.shape[1]
    moved = sum(a.nbytes for a in (b_ops, b_dag, src, dst, blocks, result))
    return {"flops": edges * 2 * 8 * d**3, "bytes": moved}


def _lindblad_rhs_cost(result, l_ops, l_dag, damp, rho):
    """Computed: two D×D products per jump plus the two damping products."""
    return {"flops": (2 * l_ops.shape[0] + 2) * 8 * rho.shape[0] ** 3}


#: (module, attribute path) of every wrapped function, with its cost model.
TARGETS = (
    ("circuits", "parse_circuit", None),
    ("circuits", "circuit_unitaries", None),
    ("circuits", "circuit_product", None),
    ("linalg", "frobenius", None),
    ("_kernels", "step_blocks", _step_blocks_cost),
    ("_kernels", "stacked_trace_norm", None),
    ("_kernels", "lindblad_rhs_kernel", _lindblad_rhs_cost),
    ("walk", "build_dqc_chain", None),
    ("walk", "validate", None),
    ("walk", "step", None),
    ("walk", "block_diff_norm", None),
    ("walk", "BlockState.probabilities", None),
    ("walk", "run_until_converged", None),
    ("lindblad", "build_dqc_lindblad", None),
    ("lindblad", "integrate", None),
    ("lindblad", "node_marginals", None),
    ("cli", "main", None),
)

POOL_SPAN = "cli.sweep.pool"
TASK_SPAN = "harness.task"


def layer_name(module: str, attr: str) -> str:
    """Metric prefix of a target; metric names cannot start with ``_``."""
    return f"{module.lstrip('_')}.{attr}"


def _wrap(tracer: Tracer, fn, name: str, cost):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if cost is not None:
            pass_no = tracer.task[0]
            for key, value in cost(result, *args, **kwargs).items():
                tracer.counts.append((pass_no, f"{name}.{key}", value))
        return result

    return traced


class Installed:
    """Wrappers in place on the loaded oqwalk modules; ``remove`` restores them."""

    def __init__(self, tracer: Tracer):
        modules = [m for k, m in sys.modules.items() if k == "oqwalk" or k.startswith("oqwalk.")]
        self.patches: list[tuple[object, str, object]] = []
        self.wrapped: dict[str, int] = {}
        for module, path, cost in TARGETS:
            owner = sys.modules[f"oqwalk.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            traced = _wrap(tracer, original, layer_name(module, path), cost)
            if outer:  # a method: patch the class, which every instance reads
                self._patch(owner, attr, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)

        class TracedPool(ThreadPoolExecutor):
            """The sweep's thread pool, with its lifetime recorded as a span."""

            def __enter__(self):
                tracer.open(POOL_SPAN)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close()

        self._patch(sys.modules["oqwalk.cli"], "ThreadPoolExecutor", TracedPool)

    def _patch(self, owner, attr, value) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        prefix = (owner.__name__ if isinstance(owner, types.ModuleType)
                  else f"{owner.__module__}.{owner.__qualname__}")
        name = f"{prefix}.{attr}"
        self.wrapped[name] = self.wrapped.get(name, 0) + 1
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part covered by same-thread children."""
    children = defaultdict(list)
    for s in spans:
        children[(s.parent, s.thread)].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[(s.id, s.thread)], s.start, s.end)
            for s in spans}


def summarize(spans: list[Span], counts, workers: int,
              main_thread: int) -> dict[int, dict[str, float]]:
    """Per pass: ``<name>.calls`` and ``<name>.self_s`` of every span name,
    the cost-model counts, ``cli.sweep.pool_busy_ratio``, and the summed self
    time of the main thread (``harness.accounted_s``), which should equal the
    traced pass time."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    busy: dict[int, float] = defaultdict(float)
    for s in spans:
        m = out[s.pass_no]
        m[f"{s.name}.calls"] += 1
        m[f"{s.name}.self_s"] += own[s.id]
        if s.thread == main_thread:
            m["harness.accounted_s"] += own[s.id]
        parent = by_id.get(s.parent)
        if (s.name == "walk.run_until_converged" and parent is not None
                and parent.name == POOL_SPAN and parent.thread != s.thread):
            busy[s.pass_no] += s.end - s.start
    for pass_no, name, value in counts:
        out[pass_no][name] += value
    for pass_no, m in out.items():
        pool_s = m.get(f"{POOL_SPAN}.self_s", 0.0)
        m["cli.sweep.pool_busy_ratio"] = busy[pass_no] / (pool_s * workers) if pool_s else 0.0
    return {k: dict(v) for k, v in out.items()}
