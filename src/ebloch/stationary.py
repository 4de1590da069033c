"""Fixed points of the dynamics, analytic and numerical, and Gibbs comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dissipators import RhsSpec, SplitGenerator
from .linalg import as_matrix, hermitian_eig
from .propagate import AMPLIFY_TOL
from .systems import TwoLevelSystem

ZERO_EIG_TOL = 1e-10


class FixedPointError(RuntimeError):
    """The spec has no usable stationary direction."""


@dataclass
class FixedPointReport:
    """Numerical fixed point plus the quality measures attached to it.

    ``p`` holds the stationary populations in the eigenbasis of H, where the
    state is diag(p).  ``rho_stationary`` rotates diag(p) out of that basis
    anew whenever it is read.  ``gibbs_distance`` is NaN when no bath
    temperature applies (non-thermal rates).  ``spectral_gap`` is the slowest
    decaying rate, -max(Re lambda) over eigenvalues with Re lambda <
    -``ZERO_EIG_TOL`` (-1e-10), which excludes purely oscillatory modes; NaN
    if none.
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


def gibbs_state(H, T: float) -> np.ndarray:
    """exp(-H/T) / Tr exp(-H/T); T may be inf (maximally mixed state).

    An exactly diagonal, real H takes no eigensolve: its weights are summed
    in ascending energy order, as for the eigenvalues, so the state is the
    same bit for bit."""
    M = as_matrix(H)
    E = M.diagonal().real
    if not np.any(M - np.diag(E)):
        order = np.argsort(E)
        p = np.empty_like(E)
        p[order] = _gibbs_weights(E[order], T)
        return np.diag(p.astype(complex))
    w, V = hermitian_eig(M)
    return (V * _gibbs_weights(w, T)) @ V.conj().T


def two_level_stationary_analytic(sys: TwoLevelSystem) -> np.ndarray:
    """Closed-form stationary state 1/2 + ((gp-gm)/(gp+gm)) H/E.

    Coincides with the Gibbs state exactly when gp/gm = exp(-E/T).
    """
    if sys.gamma_sum <= 0.0:
        raise ValueError("gamma_p + gamma_m must be positive for a stationary state")
    lam = sys.gamma_diff / sys.gamma_sum
    return 0.5 * np.eye(2, dtype=complex) + (lam / sys.E) * sys.hamiltonian


def effective_temperature(spec: RhsSpec) -> float | None:
    """Bath temperature implied by the spec's rates, when one exists.

    Returns the T with gamma_p/gamma_m = exp(-E/T) if the rates of every
    transition agree on it (to 1e-9 relative); inf for gamma_p = gamma_m;
    None for inverted or inconsistent rates.
    """
    pairs = []
    s = spec.system
    if isinstance(s, TwoLevelSystem):
        pairs.append((s.E, s.gamma_p, s.gamma_m))
    elif s is not None:
        for t in s.transitions:
            pairs.append((t.E_t, t.gamma_p, t.gamma_m))
    if not pairs:
        return None
    temps = []
    for E, gp, gm in pairs:
        if gp <= 0.0 or gm <= 0.0:
            return None
        if gp == gm:
            temps.append(math.inf)
        elif gp < gm:
            temps.append(E / math.log(gm / gp))
        else:
            return None
    if all(math.isinf(t) for t in temps):
        return math.inf
    if any(math.isinf(t) for t in temps):
        return None
    t0 = temps[0]
    if any(abs(t - t0) > 1e-9 * abs(t0) for t in temps):
        return None
    return t0


def fixed_point(spec: RhsSpec, bath_T: float | None = None) -> FixedPointReport:
    """Stationary state from the null space of the generator.

    The spec runs as its :class:`~ebloch.dissipators.SplitGenerator`
    ``(E, W, C, V)`` (:attr:`RhsSpec.compiled`, which raises ``ValueError``
    for a spec that does not split), so no superoperator is built and
    ladders of any size are accepted.  The spectrum is eig(W) plus the
    coherence rates C.  The stationary state is diag(p) in the eigenbasis
    of H, with p the trace-normalized real part of the eigenvector of W
    whose eigenvalue lies nearest zero; the report keeps p and rotates the
    state out only when it is read.  ``multiplicity`` counts the eigenvalues
    within 1e-10 of zero; when it exceeds one (disconnected transition
    graphs) the reported state is the near-null direction of W with the
    largest trace.  Raises :class:`FixedPointError` when no eigenvalue lies
    within 1e-6 of zero or when the spectrum has real part above 1e-10
    (amplifying modes).  The measures are taken in the eigenbasis, where the
    state is diag(p): ``residual`` is ||W p|| and ``gibbs_distance`` is
    (1/2) sum |p - g|, g the Gibbs weights of the energies E (both states
    being diagonal there).
    """
    gen = spec.compiled
    if gen.max_growth > AMPLIFY_TOL:
        raise FixedPointError(
            f"generator has amplifying modes (max Re lambda = {gen.max_growth:.3e}); "
            "check the sign of gamma_pd"
        )
    eigvals = gen.spectrum
    absvals = np.abs(eigvals)
    nearest = float(absvals.min())
    if nearest > 1e-6:
        raise FixedPointError(
            f"no eigenvalue within 1e-6 of zero (closest: {nearest:.3e}); "
            "the spec has no stationary state"
        )
    multiplicity = int(np.sum(absvals <= ZERO_EIG_TOL))
    mode_vals, modes = gen.population_eig
    mode_abs = np.abs(mode_vals)
    candidates = np.flatnonzero(mode_abs <= max(ZERO_EIG_TOL, float(mode_abs.min())))
    traces = np.abs(modes[:, candidates].sum(axis=0))
    v = modes[:, candidates[int(np.argmax(traces))]].real
    tr = v.sum()
    if abs(tr) < 1e-10:
        raise FixedPointError("stationary direction has (near-)zero trace")
    p = v / tr

    # purely oscillatory modes (undamped cross-block coherences on ladders)
    # carry Re lambda = 0 and do not bound relaxation: the gap is the slowest
    # actually-decaying rate
    decaying = eigvals.real < -ZERO_EIG_TOL
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
