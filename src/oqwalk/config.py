"""Central numerical tolerances.

The tolerances that the library's checks share live in one read-only record
so that tests and library code agree on what "Hermitian enough" or "unitary
enough" means.  ``trace`` is the one trace rule of both engines: ``walk``
and ``lindblad`` check their inputs and every step against it, and neither
rescales a state.  Convergence tolerances are arguments.
"""


class Tolerances:
    __slots__ = ()  # read-only: an instance has no attribute of its own
    #: Frobenius norm of (a - a†) below which a matrix counts as Hermitian.
    hermitian = 1e-10
    #: Frobenius norm of (a†a - I) below which a matrix counts as unitary.
    unitary = 1e-10
    #: Eigenvalues above -psd count as non-negative.
    psd = 1e-10
    #: Allowed drift of the total trace of a block state or a frame diagonal.
    trace = 1e-10
    #: Allowed residual of the per-source normalization sum_i B†B = I.
    walk_norm = 1e-10
    #: Node populations at or below this are treated as exactly zero.
    zero_probability = 1e-14


TOL = Tolerances()
