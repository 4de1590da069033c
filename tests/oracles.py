"""Reference oracles that the tests compare the package against.

The package runs every spec through :class:`ebloch.dissipators.SplitGenerator`;
these independent routes stay here, out of its API:

* :func:`vectorize` stacks matrix columns, hence
  ``vectorize(A @ X @ B) == kron(B.T, A) @ vectorize(X)``, the convention of
  :func:`build_superoperator`;
* :func:`master_rhs` assembles d(rho)/dt of a spec from one of the package's
  two kernels, the elemental-Bloch one or the GKLS jump list, and
  :func:`build_superoperator` probes it on every matrix unit;
* :func:`transition_projector` gives the term-by-term projector form of one
  transition of the multi-level elemental-Bloch kernel;
* :func:`dense_rates` reads every coherence rate of a
  :class:`ebloch.dissipators.SplitGenerator` into one N x N matrix, and
  :func:`formula_rates` builds that matrix from a spec's damping formulas;
* :func:`split_apply` applies a :class:`ebloch.dissipators.SplitGenerator`
  to a dense matrix of its eigenbasis, and :func:`is_psd` tests positivity
  with a dense eigensolve;
* :func:`commutator` forms [A, B] with two dense products;
* :func:`dense_compile_basis` and :func:`dense_gibbs_state` decide whether H
  is diagonal by forming H minus its diagonal, where
  :func:`ebloch.linalg.eigenbasis` counts nonzero entries;
* :func:`uniformization` gives the exact flow of a rate matrix as a series
  of non-negative terms;
* :func:`choi_margin` tests a superoperator for complete positivity through
  its Choi matrix;
* :func:`bloch_vector` solves Bloch's equation for a two-level system in
  closed form, and :func:`two_level_stationary_analytic` is its t -> inf
  limit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ebloch.dissipators import (
    RhsSpec,
    SplitGenerator,
    _as_states,
    _gkls,
    double_commutator,
    ebe_multi_level,
    ebe_two_level,
)
from ebloch.linalg import as_matrix, herm_part, hermitian_eig, is_hermitian
from ebloch.stationary import _gibbs_weights
from ebloch.systems import SIGMA_X, SIGMA_Y, SIGMA_Z, TwoLevelSystem

MAX_SUPEROP_DIM = 64
PAULI = np.array([SIGMA_X, SIGMA_Y, SIGMA_Z])


def vectorize(M) -> np.ndarray:
    """Column-stacking vectorization of a square matrix."""
    return as_matrix(M).reshape(-1, order="F")


def commutator(A, B) -> np.ndarray:
    """[A, B] = AB - BA."""
    A, B = as_matrix(A), as_matrix(B)
    return A @ B - B @ A


def is_psd(A, tol: float = 1e-8) -> bool:
    """Hermitian and positive semidefinite up to ``-tol`` on the minimum
    eigenvalue."""
    M = as_matrix(A)
    if not is_hermitian(M):
        return False
    return bool(np.linalg.eigvalsh(herm_part(M)).min() >= -tol)


def dense_compile_basis(H) -> tuple:
    """(E, V) of H: its diagonal and None unless H - diag(diag H) or the
    diagonal's imaginary part has a nonzero entry, else ``hermitian_eig``."""
    H = as_matrix(H)
    energies = np.diag(H)
    if np.count_nonzero(H - np.diag(energies)) or np.count_nonzero(energies.imag):
        return hermitian_eig(H)
    return energies.real, None


def dense_gibbs_state(H, T: float) -> np.ndarray:
    """exp(-H/T) / Tr exp(-H/T), with no eigensolve when H - diag(Re diag H)
    has no nonzero entry; the weights are then summed in ascending order."""
    M = as_matrix(H)
    E = M.diagonal().real
    if not np.any(M - np.diag(E)):
        order = np.argsort(E)
        p = np.empty_like(E)
        p[order] = _gibbs_weights(E[order], T)
        return np.diag(p.astype(complex))
    w, V = hermitian_eig(M)
    return (V * _gibbs_weights(w, T)) @ V.conj().T


def dense_rates(gen: SplitGenerator) -> np.ndarray:
    """C[a, b] = ``gen.rates(a, b)`` for every a != b, with a zero diagonal."""
    idx = np.arange(len(gen.E))
    C = gen.rates(idx[:, None], idx)
    np.fill_diagonal(C, 0.0)
    return C


def formula_rates(spec: RhsSpec) -> np.ndarray:
    """The dense C of ``spec.compiled`` built in one pass from its W and E:
    C = gamma_pd w^2 - Gamma - i w [include_unitary] with w_ab = E_a - E_b,
    Gamma half the two levels' out-rates -W_aa, and a zero diagonal."""
    gen = spec.compiled
    out = np.abs(np.diag(gen.W))  # -W_aa, and +0.0 for a level with none
    damping = 0.5 * (out[:, None] + out[None, :])
    w = gen.E[:, None] - gen.E[None, :]
    C = (spec.gamma_pd * w * w - damping).astype(complex)
    if spec.include_unitary:
        C -= 1j * w
    np.fill_diagonal(C, 0.0)
    return C


def split_apply(gen: SplitGenerator, s: np.ndarray) -> np.ndarray:
    """d(s)/dt of a matrix s in the eigenbasis of ``gen``, or of each matrix
    of an (n, d, d) stack: ``gen.W`` on the diagonal, :func:`dense_rates`
    elementwise on the rest."""
    out = dense_rates(gen) * s
    idx = np.arange(len(gen.E))
    out[..., idx, idx] = (gen.W @ s.diagonal(axis1=-2, axis2=-1).T).T
    return out


def uniformization(W, p0, times) -> np.ndarray:
    """(n_times, N) populations exp(W t) p0 at each of ``times`` for a rate
    matrix W (columns summing to zero, off-diagonal entries >= 0), by
    uniformization (Jensen 1953; Grassmann 1977):

        p(t) = sum_k Poisson(k; Lambda t) P^k p0,  P = I + W / Lambda,

    with Lambda the largest out-rate, so that P and every term are
    non-negative and nothing cancels: each population is accurate in
    relative terms however small it is.  One chain P^k p0 serves every
    time, up to 12 standard deviations beyond the largest Poisson mean.
    The weights are taken in log space from ``lgamma``, shifted by their
    largest value and normalized to sum to 1, since a log weight of
    magnitude Lambda t carries an absolute error of about Lambda t times
    the unit round-off that normalizing removes; t = 0 gives p0 itself.
    """
    W, p0, times = (np.asarray(x, dtype=float) for x in (W, p0, times))
    lam = float(-W.diagonal().min())
    P = np.eye(len(W)) + W / lam
    mu = lam * times.max()
    K = math.ceil(mu + 12.0 * math.sqrt(mu) + 30.0)
    chain = np.empty((K + 1, len(p0)))
    chain[0] = p0
    for k in range(K):
        chain[k + 1] = P @ chain[k]
    k = np.arange(K + 1)
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(K + 1)])
    out = np.empty((len(times), len(p0)))
    for i, t in enumerate(times.tolist()):
        if t == 0.0:
            out[i] = p0
            continue
        log_w = k * math.log(lam * t) - log_fact
        w = np.exp(log_w - log_w.max())
        out[i] = (w / w.sum()) @ chain
    return out


def master_rhs(rho, spec: RhsSpec, jumps: bool = False) -> np.ndarray:
    """Assembled right-hand side: -i[H, rho] + dissipator + gamma_pd [H,[H,rho]]
    of one matrix or of each matrix in a stack.

    The dissipator is the elemental-Bloch kernel of the spec's system
    (:func:`ebe_two_level` or :func:`ebe_multi_level`), or the GKLS form over
    :attr:`RhsSpec.jump_terms` when ``jumps`` is set or the spec has no
    system.  Linear in rho; for Hermitian unit-trace input the output is
    Hermitian and traceless to round-off.
    """
    M = _as_states(rho, spec.dim)
    H, system = spec.hamiltonian, spec.system
    if jumps or system is None:
        out = _gkls(M, spec.jump_terms)
    elif isinstance(system, TwoLevelSystem):
        out = ebe_two_level(M, system)
    else:
        out = ebe_multi_level(M, system)
    if spec.include_unitary:
        out += -1j * (H @ M - M @ H)
    if spec.gamma_pd != 0.0:
        out += spec.gamma_pd * double_commutator(H, M)
    return out


def build_superoperator(spec: RhsSpec, jumps: bool = False) -> np.ndarray:
    """Matrix S of the linear map rho -> master_rhs(rho, spec, jumps) in the
    column-stacking convention: vectorize(master_rhs(rho)) = S @ vectorize(rho).

    An oracle for :attr:`RhsSpec.compiled`, which :func:`propagate` and
    :func:`ebloch.stationary.fixed_point` use instead.  Built by one call of
    the right-hand side on the stack of the dim^2 matrix units; guarded at
    dim <= 64.  The unit stack, its images and the kernel's temporaries are
    held at once, about five times the memory of S at dim 32 (some 1.3 GB
    at dim 64, where S is 268 MB, by scaling).  It inspects no spectrum.
    """
    dim = spec.dim
    if dim > MAX_SUPEROP_DIM:
        raise ValueError(f"superoperator guard: dim={dim} exceeds {MAX_SUPEROP_DIM}")
    # unit k = a + b * dim is |a><b|; row k of the transposed images is the
    # column-stacked image of unit k
    images = master_rhs(np.eye(dim * dim, dtype=complex).reshape(-1, dim, dim)
                        .transpose(0, 2, 1), spec, jumps)
    return images.transpose(0, 2, 1).reshape(dim * dim, -1).T


def choi_margin(S: np.ndarray) -> float:
    """Least eigenvalue of the Choi matrix of a Hermiticity-preserving
    generator S, in the convention of :func:`build_superoperator`, on the
    complement of the maximally entangled vector.  exp(S t) is completely
    positive for every t >= 0 exactly when it is >= 0 (Wolf and Cirac,
    Commun. Math. Phys. 279, 147, 2008); for one pair this is Bloch's
    T2 <= 2 T1."""
    d = math.isqrt(len(S))
    # S[a + b d, i + j d] is entry (a, b) of the image of |i><j|, and entry
    # (i d + a, j d + b) of the Choi matrix sum_ij |i><j| (x) L(|i><j|)
    choi = S.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)
    omega = np.eye(d).reshape(-1) / math.sqrt(d)
    # columns 1: of the QR of [omega, I] are an orthonormal basis of omega's complement
    Q = np.linalg.qr(np.column_stack([omega, np.eye(d * d)]))[0][:, 1:]
    return float(np.linalg.eigvalsh(herm_part(Q.T @ choi @ Q))[0])


def bloch_vector(system: TwoLevelSystem, gamma_pd: float, include_unitary: bool,
                 r0, t) -> np.ndarray:
    """Bloch vector r(t), rho = (1 + r . sigma)/2, at each of the times ``t``
    (shape ``t.shape + (3,)``) of ``RhsSpec.for_system(system, gamma_pd=...,
    include_unitary=...)`` from r(0) = ``r0``: Bloch's equation (Phys. Rev.
    70, 460, 1946) about the field axis n = ``system.eps``.  n . r relaxes
    at 1/T1 = gp + gm toward lam = (gp - gm)/(gp + gm); the transverse part
    precesses about n at E when the unitary part is on, and decays at
    1/T2 = (gp + gm)/2 - gamma_pd E^2.  Needs gp + gm > 0."""
    n, r0 = np.asarray(system.eps), np.asarray(r0, dtype=float)
    t = np.asarray(t, dtype=float)[..., None]
    rate, lam = system.gamma_sum, system.gamma_diff / system.gamma_sum
    z0 = n @ r0
    perp = r0 - z0 * n
    phase = system.E * t if include_unitary else 0.0
    turned = np.cos(phase) * perp + np.sin(phase) * np.cross(n, perp)
    decay = np.exp(-(0.5 * rate - gamma_pd * system.E ** 2) * t)
    return (lam + (z0 - lam) * np.exp(-rate * t)) * n + decay * turned


def two_level_stationary_analytic(sys: TwoLevelSystem) -> np.ndarray:
    """Closed-form stationary state 1/2 + ((gp-gm)/(gp+gm)) H/E, the
    t -> inf limit of :func:`bloch_vector`.

    Coincides with the Gibbs state exactly when gp/gm = exp(-E/T).
    """
    if sys.gamma_sum <= 0.0:
        raise ValueError("gamma_p + gamma_m must be positive for a stationary state")
    r = bloch_vector(sys, 0.0, False, np.zeros(3), np.inf)
    return 0.5 * (np.eye(2) + np.einsum("k,kij->ij", r, PAULI))


def transition_projector(
    i: int,
    j: int,
    E_t: float,
    N: int,
    energies: Sequence[float] | None = None,
):
    """Rank-2 projector machinery for the transition between levels i and
    j, with gap E_t.

    Returns ``(I_t, H_t, project)`` where ``I_t`` projects onto levels
    (i, j), ``H_t`` is the Hamiltonian restricted to that block, and
    ``project(rho)`` keeps exactly the four block entries of ``rho``.
    Without explicit energies the block Hamiltonian is centred,
    diag(-E_t/2, +E_t/2); block offsets cancel in every generated term, so
    the two choices produce identical dynamics.
    """
    if i >= N or j >= N:
        raise ValueError(f"transition ({i}, {j}) out of range for N={N}")
    I_t = np.zeros((N, N), dtype=complex)
    I_t[i, i] = 1.0
    I_t[j, j] = 1.0
    H_t = np.zeros((N, N), dtype=complex)
    if energies is None:
        H_t[i, i] = -0.5 * E_t
        H_t[j, j] = 0.5 * E_t
    else:
        H_t[i, i] = energies[i]
        H_t[j, j] = energies[j]

    idx = np.array([i, j], dtype=np.intp)

    def project(rho) -> np.ndarray:
        M = as_matrix(rho)
        if M.shape != (N, N):
            raise ValueError(f"expected a {N}x{N} matrix, got {M.shape}")
        out = np.zeros_like(M)
        out[np.ix_(idx, idx)] = M[np.ix_(idx, idx)]
        return out

    return I_t, H_t, project
