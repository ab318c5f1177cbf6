"""The library's surface.  Every name a module exports resolves, so a
deletion cannot leave a stale entry in ``__all__``; every function that a
module exports is called by some ``oqw`` command line of the golden record,
or is one the benchmark reads to check its outputs; and no module imports a
name it does not read, so the package cannot grow a second copy of its
modules' names back."""

import ast
import importlib
import inspect
import sys
import threading
from pathlib import Path

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
    """``module.name`` of every function in a module's ``__all__``, mapped
    to its code object."""
    objects = []
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


def unused_imports(path: Path) -> list[str]:
    """The names that an import in ``path`` binds and that ``path`` never
    reads.  ``from __future__`` imports are directives, and the package's
    ``from . import <submodule>`` loads the submodules it exists to bind."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__" and not (
                path.name == "__init__.py" and node.level == 1 and node.module is None):
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(Path(oqwalk.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_a_name_it_does_not_read(path):
    assert unused_imports(path) == []
