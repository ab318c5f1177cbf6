"""The library's surface.  Every name a module exports resolves, so a
deletion cannot leave a stale entry in ``__all__``; and every function that
the package or a module exports is called by some ``oqw`` command line of
the golden record, or is one the benchmark reads to check its outputs."""

import importlib
import inspect
import sys
import threading

import pytest

import oqwalk
from golden.make_golden import CASES, capture

MODULES = ["walk", "lindblad", "circuits", "linalg"]

#: Exported functions that no command calls, each read by ``perfbench/workloads.py``.
BENCHMARK_READS = {
    # the birth-death chain that every ``run`` history is checked against
    "walk.classical_marginal_step",
    # the stationary distribution that the steady-state error is taken from
    "walk.analytic_chain_steady",
}


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"oqwalk.{module}")
    assert len(mod.__all__) == len(set(mod.__all__))
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def exported_functions() -> dict:
    """``module.name`` of every function in a module's ``__all__`` or in
    the package namespace, mapped to its code object."""
    objects = [getattr(oqwalk, name) for name in dir(oqwalk) if not name.startswith("_")]
    for module in MODULES:
        mod = importlib.import_module(f"oqwalk.{module}")
        objects += [getattr(mod, name) for name in mod.__all__]
    return {
        f"{fn.__module__.removeprefix('oqwalk.')}.{fn.__qualname__}": fn.__code__
        for fn in objects if inspect.isfunction(fn)
    }


def test_every_exported_function_is_called_by_a_command_or_read_by_the_benchmark():
    # sweep runs its grid in a pool thread, which threading.setprofile reaches
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        for argv in CASES:
            capture(argv)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    uncalled = {name for name, code in exported_functions().items() if code not in called}
    assert uncalled == BENCHMARK_READS
