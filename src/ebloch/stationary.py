"""Gibbs states and numerical fixed points of the dynamics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dissipators import RhsSpec, SplitGenerator
from .linalg import eigenbasis, is_hermitian

# an eigenvalue within this fraction of W's largest rate counts as zero
ZERO_EIG_TOL = 1e-10


@dataclass
class FixedPointReport:
    """Numerical fixed point plus the quality measures attached to it.

    ``p`` holds the stationary populations in the eigenbasis of H, where the
    state is diag(p).  ``rho_stationary`` rotates diag(p) out of that basis
    anew whenever it is read.  ``gibbs_distance`` is NaN when no bath
    temperature applies (non-thermal rates).  ``multiplicity`` counts the
    eigenvalues that are zero within ``ZERO_EIG_TOL`` (1e-10) times the
    largest rate of W.  ``spectral_gap`` is the slowest decaying rate,
    -max(Re lambda) over eigenvalues with Re lambda below minus that
    tolerance, which excludes purely oscillatory modes; NaN if none.
    """

    p: np.ndarray
    residual: float
    gibbs_distance: float
    spectral_gap: float
    multiplicity: int
    _gen: SplitGenerator = field(repr=False)

    @property
    def rho_stationary(self) -> np.ndarray:
        return self._gen.rotate_out(np.diag(self.p).astype(complex))


def _gibbs_weights(E: np.ndarray, T: float) -> np.ndarray:
    """exp(-E/T) / sum exp(-E/T) over level energies E, exponentiated after
    shifting by min(E) so that no weight overflows; T may be inf (equal
    weights)."""
    if not (T > 0.0):
        raise ValueError(f"T must be a positive temperature, got {T}")
    x = -(E - E.min()) / T if np.isfinite(T) else np.zeros_like(E)
    p = np.exp(x)
    return p / p.sum()


def gibbs_in_basis(E: np.ndarray, V: np.ndarray | None, T: float) -> np.ndarray:
    """exp(-H/T) / Tr exp(-H/T) of H = V diag(E) V^dag; with ``V`` None (H
    diagonal) the weights are summed in ascending energy order, as for the
    eigenvalues of ``eigh``, so the state is the same bit for bit."""
    if V is None:
        order = np.argsort(E)
        p = np.empty_like(E)
        p[order] = _gibbs_weights(E[order], T)
        return np.diag(p.astype(complex))
    return (V * _gibbs_weights(E, T)) @ V.conj().T


def gibbs_state(H, T: float) -> np.ndarray:
    """exp(-H/T) / Tr exp(-H/T); T may be inf (maximally mixed state).  An
    exactly diagonal, real H takes no eigensolve.  Raises ``ValueError``
    unless H is Hermitian within tolerance."""
    E, V = eigenbasis(H)
    if V is not None and not is_hermitian(H):  # eigenbasis checks only a diagonal H
        raise ValueError("matrix is not Hermitian within tolerance")
    return gibbs_in_basis(E, V, T)


def effective_temperature(spec: RhsSpec) -> float | None:
    """Bath temperature implied by the spec's rates, when one exists.

    Returns the T with gamma_p/gamma_m = exp(-E/T) if the rates of every
    transition agree on it (to 1e-9 relative); inf for gamma_p = gamma_m;
    None for inverted or inconsistent rates.
    """
    s = spec.system
    rows = [] if s is None else [(s.energies[j] - s.energies[i], gp, gm) for i, j, gp, gm
                                 in zip(*(a.tolist() for a in s.transitions))]
    if not rows or not all(0.0 < gp <= gm for _, gp, gm in rows):
        return None
    temps = [math.inf if gp == gm else E / math.log(gm / gp) for E, gp, gm in rows]
    t0 = temps[0]
    if math.isinf(t0):
        return t0 if all(math.isinf(t) for t in temps) else None
    return t0 if all(abs(t - t0) <= 1e-9 * abs(t0) for t in temps) else None


def fixed_point(spec: RhsSpec, bath_T: float | None = None) -> FixedPointReport:
    """Stationary state from the null space of the generator.

    The spec runs as its :class:`~ebloch.dissipators.SplitGenerator`
    (:attr:`RhsSpec.compiled`, which raises ``ValueError`` for a spec that
    does not split), so no superoperator is built and ladders of any size
    are accepted.  The spectrum is eig(W) plus the coherence rates C_ab of
    every pair a != b, and an eigenvalue counts as zero within
    ``ZERO_EIG_TOL`` times the largest rate of W (exactly, for a closed
    system), so scaling every rate leaves p and ``multiplicity`` as they
    are.  A stationary state always exists: the columns of W sum to zero,
    so every eigenvector of a nonzero eigenvalue sums to zero while the null
    space holds one probability vector per closed class of the transition
    graph.  The stationary state is diag(p) in the eigenbasis of H, with p
    the trace-normalized real part of the null vector of W with the largest
    trace (one of several when ``multiplicity`` exceeds one, as on
    disconnected transition graphs); the report keeps p and rotates the
    state out only when it is read.  The measures are taken in the
    eigenbasis, where the state is diag(p): ``residual`` is ||W p|| and
    ``gibbs_distance`` is (1/2) sum |p - g|, g the Gibbs weights of the
    energies E (both states being diagonal there).
    """
    gen = spec.compiled
    tol = ZERO_EIG_TOL * np.abs(gen.W).max()  # the largest out-rate
    mode_vals, modes = np.linalg.eig(gen.W)
    idx = np.arange(len(gen.E))
    pair_rates = gen.rates(idx[:, None], idx)[~np.eye(len(idx), dtype=bool)]
    eigvals = np.concatenate([mode_vals, pair_rates])
    multiplicity = int(np.sum(np.abs(eigvals) <= tol))
    null = modes[:, np.abs(mode_vals) <= tol]
    v = null[:, int(np.argmax(np.abs(null.sum(axis=0))))].real
    p = v / v.sum()

    # purely oscillatory modes (with gamma_pd = 0, coherences between two
    # levels that have no out-rate) carry Re lambda = 0 and do not bound
    # relaxation: the gap is the slowest actually-decaying rate
    decaying = eigvals.real < -tol
    spectral_gap = float(-eigvals[decaying].real.max()) if decaying.any() else math.nan
    if bath_T is None:
        bath_T = effective_temperature(spec)
    if bath_T is not None:
        gibbs_distance = 0.5 * np.abs(p - _gibbs_weights(gen.E, bath_T)).sum()
    else:
        gibbs_distance = math.nan
    return FixedPointReport(
        p=p,
        residual=float(np.linalg.norm(gen.W @ p)),
        gibbs_distance=float(gibbs_distance),
        spectral_gap=spectral_gap,
        multiplicity=multiplicity,
        _gen=gen,
    )
