"""Open quantum walks that run quantum circuits as dissipative chain dynamics.

The package compiles a unitary circuit into a chain walk whose forward hops
apply the next gate, iterates the walk to its steady state, and reports how
the detection probability at the output register and the number of steps to
stationarity depend on the forward weight ω.  A master-equation integrator
of the canonical dissipative model of the same chain, on the same node
blocks, provides an independent continuous-time cross-check.
"""

from . import circuits, lindblad, linalg, walk
from .circuits import (
    BUILTIN_CIRCUITS,
    Circuit,
    Gate,
    circuit_product,
    circuit_unitaries,
    dft_matrix,
    parse_circuit,
    qft,
    render_circuit,
    toffoli13,
    toffoli_matrix,
)
from .config import TOL
from .errors import (
    CircuitError,
    CircuitParseError,
    DomainError,
    ShapeError,
)
from .lindblad import LindbladModel, build_dqc_lindblad, integrate, lindblad_rhs
from .walk import (
    BlockState,
    ChainParams,
    ChainWalk,
    ConvergenceReport,
    OpenQuantumWalk,
    analytic_chain_steady,
    build_dqc_chain,
    classical_marginal_step,
    conditional_state,
    run_chain,
    run_until_converged,
    step,
    sweep_chain,
    two_node_gate_walk,
    validate,
)

__version__ = "0.1.0"

#: There is one kernel backend, numpy; ``perfbench/worker.py`` records this flag.
USING_NUMBA = False
