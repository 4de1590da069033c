"""Right-hand-side generators for the master equation.

Two independent routes to the same dissipative map exist on purpose:

* :func:`gkls_dissipator` works through explicit jump operators;
* :func:`ebe_two_level` / :func:`ebe_multi_level` work through the
  elemental-Bloch decomposition (mixing toward equal populations, energy
  relaxation, dephasing) with no jump operators at all.

For a canonically scaled two-level pair the two routes coincide as linear
maps, which the test suite checks numerically instead of trusting either
implementation.

Every kernel and :func:`master_rhs` maps one (d, d) matrix or each matrix of
an (n, d, d) stack, checking the shape once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import as_matrix, hermitian_eig
from .systems import LadderSystem, TwoLevelSystem, jump_operators

KINDS = ("gkls", "ebe2", "eben")
# entries of a rotated jump below this fraction of its largest count as zero
JUMP_ZERO = 1e-12

_EYE2 = np.eye(2, dtype=complex)


@dataclass(frozen=True, eq=False)
class SplitGenerator:
    """The master equation in the eigenbasis of H: a real rate matrix on the
    populations plus one independent rate per coherence.

    A state s = V^dag rho V in that basis (s = rho when ``V`` is None, for an
    exactly diagonal H) evolves as dp/dt = W p on its populations p = diag(s)
    and as d(s_ab)/dt = C[a, b] s_ab on each coherence.  ``W`` is real, with
    non-negative off-diagonal rates and zero column sums; C[a, b] = -i w_ab
    [include_unitary] - Gamma_ab + gamma_pd w_ab^2 with the Bohr frequencies
    w_ab = E_a - E_b, a zero diagonal and C[b, a] = conj(C[a, b]).  The
    spectrum is eig(W) plus the off-diagonal entries of C.
    """

    W: np.ndarray
    C: np.ndarray
    V: np.ndarray | None

    def rotate_in(self, rho: np.ndarray) -> np.ndarray:
        """V^dag rho V: a matrix of the original basis in the eigenbasis."""
        return rho if self.V is None else self.V.conj().T @ rho @ self.V

    def rotate_out(self, s: np.ndarray) -> np.ndarray:
        """V s V^dag: a matrix of the eigenbasis in the original basis."""
        return s if self.V is None else self.V @ s @ self.V.conj().T

    def apply(self, s: np.ndarray) -> np.ndarray:
        """d(s)/dt of a matrix s in the eigenbasis, or of each matrix of an
        (n, d, d) stack: ``W`` on the diagonal, ``C`` elementwise on the rest."""
        out = self.C * s
        idx = np.arange(len(self.C))
        out[..., idx, idx] = (self.W @ s.diagonal(axis1=-2, axis2=-1).T).T
        return out

    @cached_property
    def coherence_rates(self) -> np.ndarray:
        """The off-diagonal entries of C, one eigenvalue per coherence."""
        return self.C[~np.eye(len(self.C), dtype=bool)]

    @cached_property
    def population_eig(self) -> tuple:
        """(eigenvalues, column eigenvectors) of ``W``."""
        return np.linalg.eig(self.W)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """eig(W) followed by :attr:`coherence_rates`."""
        return np.concatenate([self.population_eig[0], self.coherence_rates])

    @cached_property
    def max_growth(self) -> float:
        """Largest real part in the spectrum, floored at 0.  ``W`` is a rate
        matrix, whose eigenvalues have Re <= 0 (Gershgorin), so only C is
        inspected and W is not diagonalized."""
        rates = self.coherence_rates
        return max(0.0, float(rates.real.max())) if rates.size else 0.0


def _compile(spec: "RhsSpec") -> SplitGenerator:
    """(W, C, V) of a spec; raises ValueError when it does not split."""
    H = spec.hamiltonian
    energies = np.diag(H)
    if np.count_nonzero(H - np.diag(energies)) or np.count_nonzero(energies.imag):
        energies, V = hermitian_eig(H)
    else:
        energies, V = energies.real, None
    n = spec.dim
    W = np.zeros((n, n))
    if spec.kind == "gkls":
        # gamma |c|^2 for L = c|x><y| moves population from y to x and damps
        # every coherence that touches y at half that rate
        out = np.zeros(n)
        for k, (L, gamma) in enumerate(spec.jumps):
            if V is not None:
                L = V.conj().T @ L @ V
            nz = np.flatnonzero(np.abs(L) > JUMP_ZERO * np.abs(L).max())
            x, y = divmod(int(nz[0]), n) if nz.size == 1 else (0, 0)
            if x == y:
                raise ValueError(
                    f"jump {k} (rate {gamma:g}) is not a single off-diagonal matrix "
                    "unit in the eigenbasis of H, so the spec does not split into "
                    "populations and coherences")
            rate = gamma * abs(L[x, y]) ** 2
            W[x, y] += rate
            W[y, y] -= rate
            out[y] += rate
        damping = 0.5 * (out[:, None] + out[None, :])
    else:
        if spec.kind == "ebe2":
            sys = spec.two_level
            if not np.array_equal(H, sys.hamiltonian):
                raise ValueError("kind 'ebe2' splits only under its system's own Hamiltonian")
            # one transition from the lower to the upper eigenlevel
            ii, jj = np.argsort(energies)[:, None]
            gp, gm = np.array([sys.gamma_p]), np.array([sys.gamma_m])
        elif V is None:
            ii, jj, gp, gm = spec.ladder.transition_arrays
        else:
            raise ValueError("kind 'eben' needs an exactly diagonal Hamiltonian")
        np.add.at(W, (jj, ii), gp)
        np.add.at(W, (ii, ii), -gp)
        np.add.at(W, (ii, jj), gm)
        np.add.at(W, (jj, jj), -gm)
        damping = np.zeros((n, n))
        np.add.at(damping, (ii, jj), 0.5 * (gp + gm))
        np.add.at(damping, (jj, ii), 0.5 * (gp + gm))
    w = energies[:, None] - energies[None, :]
    C = (spec.gamma_pd * w * w - damping).astype(complex)
    if spec.include_unitary:
        C -= 1j * w
    np.fill_diagonal(C, 0.0)
    return SplitGenerator(W, C, V)


@dataclass(frozen=True, eq=False)
class RhsSpec:
    """Everything needed to evaluate d(rho)/dt.

    ``gamma_pd`` is the signed coefficient with which the double commutator
    [H, [H, rho]] is added to the assembled equation.  It is applied exactly
    as written; a damping term therefore needs a negative value (for a
    diagonal H the double commutator multiplies each coherence by the squared
    gap, so a positive coefficient amplifies them).  Amplifying generators
    are flagged by :mod:`ebloch.propagate` and :mod:`ebloch.stationary`
    rather than forbidden.
    """

    hamiltonian: np.ndarray
    kind: str
    two_level: TwoLevelSystem | None = None
    ladder: LadderSystem | None = None
    jumps: tuple = ()
    include_unitary: bool = True
    gamma_pd: float = 0.0

    def __post_init__(self):
        H = as_matrix(self.hamiltonian)
        object.__setattr__(self, "hamiltonian", H)
        if self.kind not in KINDS:
            raise ValueError(f"dissipator kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "ebe2":
            if self.two_level is None:
                raise ValueError("kind 'ebe2' needs a TwoLevelSystem payload")
            if H.shape != (2, 2):
                raise ValueError("kind 'ebe2' needs a 2x2 Hamiltonian")
        if self.kind == "eben":
            if self.ladder is None:
                raise ValueError("kind 'eben' needs a LadderSystem payload")
            if H.shape != (self.ladder.N, self.ladder.N):
                raise ValueError("Hamiltonian dimension does not match the ladder")
        jumps = []
        for L, gamma in self.jumps:
            L = as_matrix(L)
            if L.shape != H.shape:
                raise ValueError(f"jump operator dimension {L.shape} does not match {H.shape}")
            gamma = float(gamma)
            if not (np.isfinite(gamma) and gamma >= 0.0):
                raise ValueError(f"jump rates must be non-negative, got {gamma}")
            jumps.append((L, gamma))
        if self.kind == "gkls" and not jumps and (self.two_level or self.ladder):
            raise ValueError("kind 'gkls' with a system payload needs an explicit jump list")
        object.__setattr__(self, "jumps", tuple(jumps))
        if not np.isfinite(self.gamma_pd):
            raise ValueError("gamma_pd must be finite")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def jump_terms(self) -> tuple:
        """``(K, ((gamma, L, L^dag), ...))`` with K = sum_j gamma_j L_j^dag L_j,
        precomputed once; any real jump-operator solver would hoist these out
        of the propagation loop."""
        terms = tuple((gamma, L, L.conj().T) for L, gamma in self.jumps)
        K = np.zeros_like(self.hamiltonian)
        for gamma, L, Ld in terms:
            K += gamma * (Ld @ L)
        return K, terms

    @cached_property
    def compiled(self) -> SplitGenerator:
        """The spec's :class:`SplitGenerator` in the eigenbasis of H.

        An exactly diagonal H is used as it is (``V`` is None); any other H
        is diagonalized by :func:`~ebloch.linalg.hermitian_eig`.  ``eben``
        and ``ebe2`` are transitions between levels; each ``gkls`` jump,
        rotated to V^dag L V, must be a single off-diagonal matrix unit
        (entries below ``JUMP_ZERO`` times its largest count as zero).  Raises
        ``ValueError`` naming the first jump that is not, for ``eben`` under
        a non-diagonal H and for ``ebe2`` under another H than its system's:
        such specs have no population/coherence split and are not supported.
        """
        return _compile(self)

    @classmethod
    def for_two_level(
        cls,
        sys: TwoLevelSystem,
        kind: str = "ebe2",
        include_unitary: bool = True,
        gamma_pd: float | None = None,
    ) -> "RhsSpec":
        """EBE2 spec, or its GKLS twin built from the canonical jump pair.

        ``gamma_pd=None`` takes the system's non-negative magnitude as
        written; pass an explicit signed value to choose the damping sign.
        """
        H = sys.hamiltonian
        if gamma_pd is None:
            gamma_pd = sys.gamma_pd
        if kind == "ebe2":
            return cls(H, "ebe2", two_level=sys, include_unitary=include_unitary,
                       gamma_pd=gamma_pd)
        if kind == "gkls":
            pair = jump_operators(H)
            jumps = ((pair.sigma_p, sys.gamma_p), (pair.sigma_m, sys.gamma_m))
            return cls(H, "gkls", two_level=sys, jumps=jumps,
                       include_unitary=include_unitary, gamma_pd=gamma_pd)
        raise ValueError(f"two-level specs support kinds 'ebe2' and 'gkls', got {kind!r}")

    @classmethod
    def for_ladder(
        cls,
        sys: LadderSystem,
        kind: str = "eben",
        include_unitary: bool = True,
        gamma_pd: float = 0.0,
    ) -> "RhsSpec":
        """EBEN spec, or the pairwise-GKLS alternative for comparisons.

        The two coincide on populations and on states confined to a single
        transition block, but treat coherences between a block and outside
        levels differently; the GKLS twin is exposed exactly so that this
        difference can be measured.
        """
        H = sys.hamiltonian
        if kind == "eben":
            return cls(H, "eben", ladder=sys, include_unitary=include_unitary,
                       gamma_pd=gamma_pd)
        if kind == "gkls":
            return cls(H, "gkls", ladder=sys, jumps=ladder_jump_list(sys),
                       include_unitary=include_unitary, gamma_pd=gamma_pd)
        raise ValueError(f"ladder specs support kinds 'eben' and 'gkls', got {kind!r}")

    @classmethod
    def closed(cls, H, include_unitary: bool = True) -> "RhsSpec":
        """Unitary evolution only (empty jump list)."""
        return cls(as_matrix(H), "gkls", include_unitary=include_unitary)


def _as_states(rho, d: int) -> np.ndarray:
    """``rho`` as a complex (d, d) matrix or (n, d, d) stack."""
    M = np.asarray(rho, dtype=complex)
    if M.ndim not in (2, 3) or M.shape[-2:] != (d, d):
        raise ValueError(f"expected a {d}x{d} matrix or an (n, {d}, {d}) stack, "
                         f"got shape {M.shape}")
    return M


def _gkls(M: np.ndarray, jump_terms) -> np.ndarray:
    """sum_j gamma_j L M L^dag - (1/2){K, M} over :attr:`RhsSpec.jump_terms`:
    2J + 2 matrix products for J jumps."""
    K, terms = jump_terms
    out = -0.5 * (K @ M + M @ K)
    for gamma, L, Ld in terms:
        out += gamma * (L @ M @ Ld)
    return out


def gkls_dissipator(rho, jumps) -> np.ndarray:
    """Standard dissipator sum_j gamma_j (L rho L^dag - (1/2){L^dag L, rho});
    the jumps are validated as a :class:`RhsSpec`'s."""
    M = np.asarray(rho, dtype=complex)
    spec = RhsSpec(np.zeros(M.shape[-1:] * 2), "gkls", jumps=jumps)
    return _gkls(_as_states(M, spec.dim), spec.jump_terms)


def ebe_two_level(rho, sys: TwoLevelSystem) -> np.ndarray:
    """Two-level elemental-Bloch dissipator (no unitary part, no jumps).

    -(gp+gm)(rho - Tr rho * 1/2) + (gp-gm)(H/E) Tr rho
    + (gp+gm)[H, [H, rho]]/(2 E^2)

    On unit-trace states the Tr rho factors reduce to the familiar constant
    terms; keeping them makes the map linear, so it has a well-defined
    superoperator matrix and extends the unit-trace form uniquely.
    """
    M = _as_states(rho, 2)
    H, E, gsum = sys.hamiltonian, sys.E, sys.gamma_sum
    tr = (M[..., 0, 0] + M[..., 1, 1])[..., None, None]
    out = (-gsum) * M
    out += tr * (0.5 * gsum * _EYE2 + (sys.gamma_diff / E) * H)
    out += (gsum / (2.0 * E * E)) * double_commutator(H, M)
    return out


def ebe_multi_level(rho, sys: LadderSystem) -> np.ndarray:
    """Multi-level elemental-Bloch dissipator: one block term per transition.

    Per transition t on levels (i, j) with partial projector I_t, partial
    Hamiltonian H_t = I_t H I_t and partial state rho_t = I_t rho I_t:

        -(gp+gm)(rho_t - Tr rho_t * I_t/2)
        + (gp-gm)((H_t - Tr H_t * I_t/2)/E_t) Tr rho_t
        + (gp+gm)[H_t, [H_t, rho_t]]/(2 E_t^2)

    For the diagonal ladder Hamiltonian these three terms collapse exactly
    (E_t cancels) to a population current gp*rho_ii - gm*rho_jj between the
    two diagonal entries plus damping of the block coherence at (gp+gm)/2,
    which is what is evaluated below.  Contributions are accumulated in
    transition index order.  Coherences between levels that share no
    transition are left untouched.
    """
    M = _as_states(rho, sys.N)
    ii, jj, gp, gm = sys.transition_arrays
    out = np.zeros_like(M)
    gsum = gp + gm
    flow = gp * M[..., ii, ii] - gm * M[..., jj, jj]
    np.add.at(out, (..., ii, ii), -flow)
    np.add.at(out, (..., jj, jj), flow)
    np.add.at(out, (..., ii, jj), -0.5 * gsum * M[..., ii, jj])
    np.add.at(out, (..., jj, ii), -0.5 * gsum * M[..., jj, ii])
    return out


def double_commutator(H, rho) -> np.ndarray:
    """[H, [H, rho]] of one matrix or of each matrix in a stack."""
    H = as_matrix(H)
    M = _as_states(rho, len(H))
    inner = H @ M - M @ H
    return H @ inner - inner @ H


def pure_dephasing(rho, H, gamma: float) -> np.ndarray:
    """Pure-dephasing generator Gamma [H, [H, rho]], Gamma >= 0.

    Vanishes on anything commuting with H and is traceless.  This is the raw
    operator; the sign with which it enters an assembled equation is chosen
    via ``RhsSpec.gamma_pd``.
    """
    if gamma < 0.0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    return gamma * double_commutator(H, rho)


def ladder_jump_list(sys: LadderSystem) -> tuple:
    """Pairwise-GKLS jump list for a ladder: per transition, the embedded
    block raising/lowering operators |j><i| and |i><j| with their rates."""
    jumps = []
    for t in sys.transitions:
        up = np.zeros((sys.N, sys.N), dtype=complex)
        up[t.j, t.i] = 1.0
        down = np.zeros((sys.N, sys.N), dtype=complex)
        down[t.i, t.j] = 1.0
        jumps.append((up, t.gamma_p))
        jumps.append((down, t.gamma_m))
    return tuple(jumps)


def master_rhs(rho, spec: RhsSpec) -> np.ndarray:
    """Assembled right-hand side: -i[H, rho] + dissipator + gamma_pd [H,[H,rho]].

    Linear in rho; for Hermitian unit-trace input the output is Hermitian and
    traceless to round-off.
    """
    M = _as_states(rho, spec.dim)
    H = spec.hamiltonian
    if spec.kind == "ebe2":
        out = ebe_two_level(M, spec.two_level)
    elif spec.kind == "eben":
        out = ebe_multi_level(M, spec.ladder)
    else:
        out = _gkls(M, spec.jump_terms)
    if spec.include_unitary:
        out += -1j * (H @ M - M @ H)
    if spec.gamma_pd != 0.0:
        out += spec.gamma_pd * double_commutator(H, M)
    return out
