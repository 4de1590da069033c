"""Dense complex linear algebra shared by every other module.

Conventions fixed here and relied on everywhere else:

* ``hermitian_eig`` returns ascending eigenvalues and orthonormal column
  eigenvectors whose largest-magnitude component is made real and positive,
  so repeated runs produce identical vectors.

Units: hbar = k_B = 1 throughout the package; energies and temperatures
share one scale.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-10


def as_matrix(A) -> np.ndarray:
    """Coerce ``A`` to a square complex array."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M


def herm_part(A: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dagger)/2 of a matrix or of each matrix of an
    (n, d, d) stack."""
    return 0.5 * (A + A.conj().swapaxes(-2, -1))


def is_hermitian(A) -> bool:
    """Whether ``A``, one (d, d) matrix or each matrix of an (n, d, d) stack,
    deviates from its conjugate transpose by at most ``HERMITICITY_TOL``
    (1e-10) times its largest entry (a zero matrix exactly)."""
    M = np.asarray(A, dtype=complex)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix or an (n, d, d) stack, got shape {M.shape}")
    dev = np.abs(M - M.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    return bool(np.all(dev <= HERMITICITY_TOL * np.abs(M).max(axis=(-2, -1))))


def hermitian_eig(H) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with a fixed phase convention.

    ``H`` is one (d, d) matrix or an (n, d, d) stack, decomposed in one
    ``eigh`` call.  Returns ``(w, V)`` with ``w`` ascending, of shape (d,) or
    (n, d), and orthonormal columns ``V`` of the shape of ``H``.  Each column
    is rotated so that its largest-magnitude component (first index on ties)
    is real and positive.  Raises ``ValueError`` unless :func:`is_hermitian`
    holds.
    """
    M = np.asarray(H, dtype=complex)
    if not is_hermitian(M):
        raise ValueError("matrix is not Hermitian within tolerance")
    return _phased_eigh(M)


def _phased_eigh(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hermitian_eig` with no check."""
    w, V = np.linalg.eigh(herm_part(M))
    top = np.take_along_axis(V, np.abs(V).argmax(axis=-2)[..., None, :], axis=-2)
    return w, V * (top.conj() / np.abs(top))


def _right_mul(M: np.ndarray, A: np.ndarray) -> np.ndarray:
    """M @ A of a matrix or (n, d, d) stack M by one (d, d) A, in one BLAS call."""
    return (M.reshape(-1, A.shape[0]) @ A).reshape(M.shape)


def is_diagonal(M: np.ndarray) -> bool:
    """Whether M's off-diagonal entries are all zero (-0.0 too), with no M-sized array."""
    return np.count_nonzero(M) == np.count_nonzero(M.diagonal())


def eigenbasis(H) -> tuple[np.ndarray, np.ndarray | None]:
    """``(E, V)`` with H = V diag(E) V^dag: H's diagonal and ``V`` None if H
    passes :func:`is_diagonal` and its diagonal is real and finite.  Any other
    diagonal H takes :func:`hermitian_eig` and its check; a dense H is decomposed
    as there but unchecked, since ``RhsSpec`` and ``gibbs_state`` check it where it enters."""
    M = as_matrix(H)
    if is_diagonal(M):
        d = M.diagonal()
        if np.isfinite(d).all() and not d.imag.any():
            return d.real, None
        return hermitian_eig(M)
    return _phased_eigh(M)


def trace_distance(rho, sigma) -> float:
    """(1/2)||rho - sigma||_1 for Hermitian arguments."""
    d = as_matrix(rho) - as_matrix(sigma)
    return float(0.5 * np.abs(np.linalg.eigvalsh(herm_part(d))).sum())
