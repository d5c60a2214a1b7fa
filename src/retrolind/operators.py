"""Dense complex operator algebra.

Small helpers shared by every other module: adjoints, commutators, traces,
Hermiticity and distance metrics, and the eigenvalues of Hermitian matrices
(LAPACK ``eigvalsh`` through numpy).  Everything works on plain numpy arrays
holding complex128 entries; hbar = 1 throughout the package.

Relative tolerances in this package are measured against the largest entry
modulus of the operand (see :func:`scale_of`).
"""

from __future__ import annotations

import numpy as np

from .tolerances import EIGENSOLVER_HERMITICITY_TOL

__all__ = [
    "as_operator",
    "identity",
    "scale_of",
    "dagger",
    "commutator",
    "trace",
    "symmetrize",
    "hermitian_deviation",
    "frobenius_distance",
    "hermitian_eigenvalues",
    "min_eigenvalue",
]


def as_operator(entries) -> np.ndarray:
    """Coerce to a square complex matrix, requiring finite entries."""
    a = np.asarray(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"operator must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("operator entries must be finite")
    return a


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def scale_of(a) -> float:
    """Largest entry modulus; the reference for relative tolerances."""
    return float(np.max(np.abs(a)))


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def _require_same_dim(a, b, what: str) -> None:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"{what} requires equal dimensions, got {a.shape} and {b.shape}")


def commutator(a, b) -> np.ndarray:
    """A @ B - B @ A for same-dimension operators."""
    _require_same_dim(a, b, "commutator")
    return a @ b - b @ a


def trace(a) -> complex:
    """Sum of diagonal entries, as a Python complex."""
    return complex(np.trace(a))


def symmetrize(a) -> np.ndarray:
    """(A + A^dagger) / 2."""
    return (a + dagger(a)) / 2.0


def hermitian_deviation(a) -> float:
    """Largest entrywise modulus of A - A^dagger; zero iff exactly Hermitian."""
    return float(np.max(np.abs(a - dagger(a))))


def frobenius_distance(a, b) -> float:
    """Square root of the summed squared entry-modulus differences."""
    _require_same_dim(a, b, "frobenius_distance")
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def hermitian_eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a Hermitian operator, ascending (LAPACK ``eigvalsh``).

    The input must be square, finite, and Hermitian to within
    EIGENSOLVER_HERMITICITY_TOL relative to its largest entry modulus; the
    symmetrization only absorbs round-off.
    """
    a = as_operator(a)
    dev = hermitian_deviation(a)
    if dev > EIGENSOLVER_HERMITICITY_TOL * scale_of(a):
        raise ValueError(
            f"operator is not Hermitian: deviation {dev:.3e} exceeds {EIGENSOLVER_HERMITICITY_TOL:.1e} * scale"
        )
    return np.linalg.eigvalsh(symmetrize(a))


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of a Hermitian operator (errors if not Hermitian)."""
    return float(hermitian_eigenvalues(a)[0])
