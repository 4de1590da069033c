"""Dense complex linear algebra shared by every other module.

Conventions fixed here and relied on everywhere else:

* ``hermitian_eig`` returns ascending eigenvalues and orthonormal column
  eigenvectors whose largest-magnitude component is made real and positive,
  so repeated runs produce identical vectors;
* vectorization stacks matrix columns, hence
  ``vectorize(A @ X @ B) == kron(B.T, A) @ vectorize(X)``.

Units: hbar = k_B = 1 throughout the package; energies and temperatures
share one scale.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-10
TRACELESS_TOL = 1e-12
PSD_TOL = 1e-8


def as_matrix(A) -> np.ndarray:
    """Coerce ``A`` to a square complex array."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M


def dag(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return A.conj().T


def herm_part(A: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dagger)/2 of a matrix or of each matrix of an
    (n, d, d) stack."""
    return 0.5 * (A + A.conj().swapaxes(-2, -1))


def _scale(A: np.ndarray) -> float:
    return max(1.0, float(np.abs(A).max()))


def is_hermitian(A, tol: float = HERMITICITY_TOL) -> bool:
    M = as_matrix(A)
    return bool(np.abs(M - M.conj().T).max() <= tol * _scale(M))


def is_traceless(A, tol: float = TRACELESS_TOL) -> bool:
    M = as_matrix(A)
    return bool(abs(M.trace()) <= tol * _scale(M))


def is_psd(A, tol: float = PSD_TOL) -> bool:
    """Positive semidefinite up to ``-tol`` on the minimum eigenvalue."""
    M = as_matrix(A)
    if not is_hermitian(M):
        return False
    return bool(np.linalg.eigvalsh(herm_part(M)).min() >= -tol)


def _check_same_dim(A: np.ndarray, B: np.ndarray) -> None:
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")


def commutator(A, B) -> np.ndarray:
    """[A, B] = AB - BA.  Traceless to round-off for any inputs."""
    A, B = as_matrix(A), as_matrix(B)
    _check_same_dim(A, B)
    return A @ B - B @ A


def anticommutator(A, B) -> np.ndarray:
    """{A, B} = AB + BA.  Hermitian when both arguments are."""
    A, B = as_matrix(A), as_matrix(B)
    _check_same_dim(A, B)
    return A @ B + B @ A


def hermitian_eig(H, tol: float = HERMITICITY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with a fixed phase convention.

    ``H`` is one (d, d) matrix or an (n, d, d) stack, decomposed in one
    ``eigh`` call.  Returns ``(w, V)`` with ``w`` ascending, of shape (d,) or
    (n, d), and orthonormal columns ``V`` of the shape of ``H``.  Each column
    is rotated so that its largest-magnitude component (first index on ties)
    is real and positive.  Raises ``ValueError`` if any matrix deviates from
    Hermiticity by more than ``tol``.
    """
    M = np.asarray(H, dtype=complex)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix or an (n, d, d) stack, got shape {M.shape}")
    Mh = M.conj().swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(M).max(axis=(-2, -1)))
    if not np.all(np.abs(M - Mh).max(axis=(-2, -1)) <= tol * scale):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, V = np.linalg.eigh(0.5 * (M + Mh))
    top = np.take_along_axis(V, np.abs(V).argmax(axis=-2)[..., None, :], axis=-2)
    return w, V * (top.conj() / np.abs(top))


def vectorize(M) -> np.ndarray:
    """Column-stacking vectorization of a square matrix."""
    return as_matrix(M).reshape(-1, order="F")


def trace_distance(rho, sigma) -> float:
    """(1/2)||rho - sigma||_1 for Hermitian arguments."""
    d = as_matrix(rho) - as_matrix(sigma)
    return float(0.5 * np.abs(np.linalg.eigvalsh(herm_part(d))).sum())
