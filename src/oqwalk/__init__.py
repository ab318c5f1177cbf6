"""Open quantum walks that run quantum circuits as dissipative chain dynamics.

The package compiles a unitary circuit into a chain walk, kept as its slices
and the forward weight ω, iterates the walk's node populations to their
steady state, and reports how the detection probability at the output
register and the number of steps to stationarity depend on ω.  Integrating
the master equation of the canonical dissipative model of the same chain,
on the same node blocks, gives an independent continuous-time check.
"""

from . import circuits, lindblad, linalg, walk
from .circuits import (
    BUILTIN_CIRCUITS,
    Circuit,
    Gate,
    circuit_product,
    circuit_unitaries,
    parse_circuit,
    qft,
    toffoli13,
)
from .config import TOL
from .errors import (
    CircuitError,
    CircuitParseError,
    DomainError,
    ShapeError,
)
from .lindblad import LindbladModel, build_dqc_lindblad, integrate
from .walk import (
    BlockState,
    ChainParams,
    ChainWalk,
    ConvergenceReport,
    OpenQuantumWalk,
    analytic_chain_steady,
    build_dqc_chain,
    classical_marginal_step,
    run_chain,
    run_until_converged,
    step,
    sweep_chain,
    validate,
)

__version__ = "0.1.0"

#: There is one kernel backend, numpy; ``perfbench/worker.py`` records this flag.
USING_NUMBA = False
