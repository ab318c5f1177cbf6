"""Dense complex linear algebra primitives.

Matrices are plain 2-D ``numpy.ndarray`` objects with dtype complex128.  All
functions treat their inputs as immutable and return fresh arrays, so values
can be shared freely across threads.  Everything here is desk scale: dense
storage, double precision, dimensions up to a few thousand.
"""

from __future__ import annotations

import numpy as np

from .config import TOL
from .errors import DomainError, ShapeError

__all__ = [
    "as_matrix",
    "dagger",
    "frobenius",
    "trace_norm",
    "is_hermitian",
    "is_unitary",
    "psd_check",
]


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array and check that all entries are finite."""
    m = np.ascontiguousarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError("matrix contains NaN or Inf entries")
    return m


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.ascontiguousarray(as_matrix(a).conj().T)


def frobenius(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a)))


def is_hermitian(a, tol: float = TOL.hermitian) -> bool:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    return frobenius(a - a.conj().T) <= tol


def trace_norm(a) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix.

    This is the Schatten 1-norm restricted to Hermitian inputs, which is all
    the walk code ever needs (differences of density blocks).  Raises
    ``DomainError`` if the input is not Hermitian within the shared tolerance.
    """
    a = as_matrix(a)
    _require_square(a)
    if not is_hermitian(a):
        raise DomainError("trace_norm requires a Hermitian matrix")
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


def is_unitary(a, tol: float = TOL.unitary) -> bool:
    """True iff ‖a†a − I‖_F ≤ tol."""
    a = as_matrix(a)
    gram = a.conj().T @ a
    return frobenius(gram - np.eye(gram.shape[0])) <= tol


def psd_check(a, tol: float = TOL.psd) -> bool:
    """True iff the minimum eigenvalue of a Hermitian matrix is ≥ −tol."""
    a = as_matrix(a)
    _require_square(a)
    if not is_hermitian(a):
        raise DomainError("psd_check requires a Hermitian matrix")
    return bool(np.linalg.eigvalsh(a)[0] >= -tol)


def _require_square(a: np.ndarray) -> None:
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
