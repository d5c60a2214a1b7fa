"""Dense complex operator algebra.

Small helpers shared by every other module: adjoints, commutators, traces,
Hermiticity and distance metrics, and the eigenvalues of Hermitian matrices
(LAPACK ``eigvalsh`` through numpy).  Everything works on plain numpy arrays
holding complex128 entries; hbar = 1 throughout the package.

Relative tolerances in this package are measured against the largest entry
modulus of the operand (see :func:`scale_of`).  Hermiticity tests compare
them on A/4, exact outside subnormals, where no finite entry's modulus overflows.

The adjoint, trace, Hermiticity and eigenvalue helpers also take a stack of
matrices over leading axes and then act on each matrix (the last two axes)
at once, so a whole recorded block is checked in one call per check.  On a
single matrix a reduction returns a Python scalar, on a stack an array with
one entry per matrix.
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
    """Coerce to a square complex matrix or a stack of them, requiring finite entries."""
    a = np.asarray(entries, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"operator must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("operator entries must be finite")
    return a


def _per_matrix(x: np.ndarray):
    """A reduction over one matrix as a Python scalar; over a stack, as is."""
    return x.item() if x.ndim == 0 else x


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def scale_of(a):
    """Largest entry modulus of a matrix (or vector), or of each matrix of a
    stack; the reference for relative tolerances."""
    a = np.abs(a)
    return _per_matrix(np.max(a, axis=(-2, -1)) if a.ndim > 2 else np.max(a))


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.swapaxes(np.asarray(a).conj(), -1, -2)


def _require_same_dim(a, b, what: str) -> None:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"{what} requires equal dimensions, got {a.shape} and {b.shape}")


def commutator(a, b) -> np.ndarray:
    """A @ B - B @ A for same-dimension operators."""
    _require_same_dim(a, b, "commutator")
    return a @ b - b @ a


def trace(a):
    """Sum of diagonal entries, as a Python complex for a single matrix."""
    return _per_matrix(np.trace(a, axis1=-2, axis2=-1))


def symmetrize(a) -> np.ndarray:
    """(A + A^dagger) / 2, as A/2 + A^dagger/2, which no finite entry overflows;
    A/2 halves the real and imaginary parts exactly, so zeros keep their signs."""
    half = (0.5 * np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)).view(np.complex128)
    return half + dagger(half)


def hermitian_deviation(a):
    """Largest entrywise modulus of A - A^dagger; zero iff exactly Hermitian."""
    return _per_matrix(np.max(np.abs(a - dagger(a)), axis=(-2, -1)))


def _hermitian_excess(a, tol):
    """A finite A's deviation from Hermiticity where it exceeds tol * scale_of(A),
    else 0, per matrix of a stack: decided on A/4 so that no entry overflows,
    reported as 4 * hermitian_deviation(A / 4), inf where that overflows."""
    a = 0.25 * np.asarray(a)  # not a / 4, which numpy takes as a slower complex division
    dev = hermitian_deviation(a)
    with np.errstate(over="ignore"):
        return 4.0 * (dev * (dev > tol * scale_of(a)))


def frobenius_distance(a, b) -> float:
    """Square root of the summed squared entry-modulus differences."""
    _require_same_dim(a, b, "frobenius_distance")
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def hermitian_eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a Hermitian operator, ascending (LAPACK ``eigvalsh``).

    The input must be square, finite, and Hermitian to within
    EIGENSOLVER_HERMITICITY_TOL relative to its largest entry modulus (each
    matrix's own, for a stack); the symmetrization only absorbs round-off.
    """
    a = as_operator(a)
    dev = np.max(_hermitian_excess(a, EIGENSOLVER_HERMITICITY_TOL))
    if dev:
        raise ValueError(f"operator is not Hermitian: deviation {dev:.3e} exceeds {EIGENSOLVER_HERMITICITY_TOL:.1e} * scale")
    return np.linalg.eigvalsh(symmetrize(a))


def min_eigenvalue(a):
    """Smallest eigenvalue of a Hermitian operator, or of each of a stack
    (errors if not Hermitian)."""
    return _per_matrix(hermitian_eigenvalues(a)[..., 0])
