"""Open quantum walks that run quantum circuits as dissipative chain dynamics.

The package compiles a unitary circuit into a chain walk, kept as its slices
and the forward weight ω, iterates the walk's node populations to their
steady state, and reports how the detection probability at the output
register and the number of steps to stationarity depend on ω.  Integrating
the master equation of the canonical dissipative model of the same chain,
on the same node blocks, gives an independent continuous-time check.

Each public name is imported from its module; the package binds only
``__version__``, ``USING_NUMBA`` and its submodules, each on first access,
so that a process loads only the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

#: There is one kernel backend, numpy; ``perfbench/worker.py`` records this flag.
USING_NUMBA = False


def __getattr__(name):
    if name in ("circuits", "lindblad", "linalg", "walk"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
