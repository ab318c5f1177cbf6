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
    "frobenius",
    "is_unitary",
]


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array and check that all entries are finite."""
    m = np.ascontiguousarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError("matrix contains NaN or Inf entries")
    return m


def frobenius(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a)))


def is_unitary(a, tol: float = TOL.unitary) -> bool:
    """True iff ‖a†a − I‖_F ≤ tol."""
    a = as_matrix(a)
    gram = a.conj().T @ a
    return frobenius(gram - np.eye(gram.shape[0])) <= tol

