"""Open quantum walks that run quantum circuits as dissipative chain dynamics.

The package compiles a unitary circuit into a chain walk, kept as its slices
and the forward weight ω, iterates the walk's node populations to their
steady state, and reports how the detection probability at the output
register and the number of steps to stationarity depend on ω.  Integrating
the master equation of the canonical dissipative model of the same chain,
on the same node blocks, gives an independent continuous-time check.

Each public name is imported from its module; the package binds only its
submodules, ``__version__`` and ``USING_NUMBA``.
"""

from . import circuits, lindblad, linalg, walk

__version__ = "0.1.0"

#: There is one kernel backend, numpy; ``perfbench/worker.py`` records this flag.
USING_NUMBA = False
