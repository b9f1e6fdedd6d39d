"""Symmetric eigendecomposition helpers for matrix square roots.

Everything here goes through ``numpy.linalg.eigh``.  One decomposition per
generation backs sampling (square root of C), the Fisher-metric change of
coordinates (inverse square root of sigma^2 C), and positive-definiteness
repairs; the optimizer passes it along explicitly.
"""

import numpy as np

from .errors import NumericalError

# Absolute eigenvalue floor applied before square roots; guards against
# negative round-off eigenvalues without touching well-conditioned matrices.
EIG_FLOOR = 1e-20


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average a square matrix with its transpose."""
    return (a + a.T) / 2.0


def eigh_or_raise(a: np.ndarray):
    """``numpy.linalg.eigh`` mapped onto the package's error type."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigh_failed", str(exc)) from exc


def sqrt_from_eigh(w: np.ndarray, v: np.ndarray, floor: float = EIG_FLOOR) -> np.ndarray:
    """Symmetric square root assembled from a precomputed eigendecomposition."""
    return (v * np.sqrt(np.maximum(w, floor))) @ v.T


def sym_sqrt(a: np.ndarray, floor: float = EIG_FLOOR) -> np.ndarray:
    """Symmetric matrix square root via eigendecomposition."""
    w, v = eigh_or_raise(a)
    return sqrt_from_eigh(w, v, floor)
