"""The Frobenius norm: the unitarity residual of ``oqw validate``, the
normalization residuals of ``walk.validate``, the Hermiticity checks of
states and the stopping rule of ``lindblad.integrate`` all take it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "frobenius",
]


def frobenius(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a)))
