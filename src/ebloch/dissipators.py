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
    and as d(s_ab)/dt = C[a, b] s_ab on each coherence.  ``E`` holds the
    real level energies in the order of that basis, so H = V diag(E) V^dag.
    ``W`` is real, with non-negative off-diagonal rates and zero column sums;
    C[a, b] = -i w_ab [include_unitary] - Gamma_ab + gamma_pd w_ab^2 with the
    Bohr frequencies w_ab = E_a - E_b, a zero diagonal and C[b, a] =
    conj(C[a, b]).  The spectrum is eig(W) plus the off-diagonal entries of C.
    """

    E: np.ndarray
    W: np.ndarray
    C: np.ndarray
    V: np.ndarray | None

    def rotate_in(self, rho: np.ndarray) -> np.ndarray:
        """V^dag rho V: a matrix of the original basis in the eigenbasis."""
        return rho if self.V is None else self.V.conj().T @ rho @ self.V

    def rotate_out(self, s: np.ndarray) -> np.ndarray:
        """V s V^dag: a matrix of the eigenbasis in the original basis."""
        return s if self.V is None else self.V @ s @ self.V.conj().T

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
    """(E, W, C, V) of a spec; raises ValueError when it does not split."""
    H = spec.hamiltonian
    energies = np.diag(H)
    if np.count_nonzero(H - np.diag(energies)) or np.count_nonzero(energies.imag):
        energies, V = hermitian_eig(H)
    else:
        energies, V = energies.real, None
    n = spec.dim
    system = spec.system
    # population moves: rate[k] carries population from level src[k] to dst[k]
    if system is None:
        # L = c|x><y| moves population from y to x at gamma |c|^2
        dst = np.zeros(len(spec.jumps), dtype=np.intp)
        src = np.zeros_like(dst)
        rate = np.zeros(len(dst))
        for k, (L, gamma) in enumerate(spec.jumps):
            if V is not None:
                L = V.conj().T @ L @ V
            mag = np.abs(L)
            nz = np.flatnonzero(mag > JUMP_ZERO * mag.max())
            x, y = divmod(int(nz[0]), n) if nz.size == 1 else (0, 0)
            if x == y:
                raise ValueError(
                    f"jump {k} (rate {gamma:g}) is not a single off-diagonal matrix "
                    "unit in the eigenbasis of H, so the spec does not split into "
                    "populations and coherences")
            dst[k], src[k], rate[k] = x, y, gamma * abs(L[x, y]) ** 2
    else:
        if isinstance(system, TwoLevelSystem):
            # one transition from the lower to the upper eigenlevel
            ii, jj = np.argsort(energies)[:, None]
            gp, gm = np.array([system.gamma_p]), np.array([system.gamma_m])
        else:
            ii, jj, gp, gm = system.transition_arrays
        # gp lifts population from i to j, gm lowers it from j to i
        dst, src = np.concatenate([jj, ii]), np.concatenate([ii, jj])
        rate = np.concatenate([gp, gm])
    W = np.zeros((n, n))
    np.add.at(W, (dst, src), rate)
    out = np.bincount(src, rate, minlength=n)
    # 0 - out rather than -out: a level without out-rates keeps a +0.0 diagonal
    W[np.arange(n), np.arange(n)] -= out
    if spec.kind == "eben":
        # a transition damps only its own coherence, at half its two rates;
        # the diagonal is never read, as C's diagonal is zeroed below
        damping = 0.5 * (W + W.T)
    else:
        # every coherence that touches a level decays at half its out-rate
        damping = 0.5 * (out[:, None] + out[None, :])
    w = energies[:, None] - energies[None, :]
    C = (spec.gamma_pd * w * w - damping).astype(complex)
    if spec.include_unitary:
        C -= 1j * w
    np.fill_diagonal(C, 0.0)
    return SplitGenerator(energies, W, C, V)


@dataclass(frozen=True, eq=False)
class RhsSpec:
    """Everything needed to evaluate d(rho)/dt.

    A spec holds at most one ``system`` (a :class:`TwoLevelSystem` for
    ``ebe2``, a :class:`LadderSystem` for ``eben``, either for their ``gkls``
    twins); it then runs under that system's own Hamiltonian and takes no
    ``jumps``, as it compiles from the system's transitions.  Other specs are
    ``gkls`` specs with their ``jumps`` as given (none: a closed system).

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
    system: TwoLevelSystem | LadderSystem | None = None
    jumps: tuple = ()
    include_unitary: bool = True
    gamma_pd: float = 0.0

    def __post_init__(self):
        H = as_matrix(self.hamiltonian)
        object.__setattr__(self, "hamiltonian", H)
        if self.kind not in KINDS:
            raise ValueError(f"dissipator kind must be one of {KINDS}, got {self.kind!r}")
        needs = {"ebe2": TwoLevelSystem, "eben": LadderSystem}.get(self.kind)
        system = self.system
        if needs is not None and not isinstance(system, needs):
            raise ValueError(f"kind {self.kind!r} needs a {needs.__name__}, "
                             f"not {type(system).__name__}")
        if system is not None and (self.jumps or not np.array_equal(H, system.hamiltonian)):
            raise ValueError("a system spec runs under that system's own Hamiltonian "
                             "and takes no explicit jump list")
        jumps = []
        for L, gamma in self.jumps:
            L = as_matrix(L)
            if L.shape != H.shape:
                raise ValueError(f"jump operator dimension {L.shape} does not match {H.shape}")
            gamma = float(gamma)
            if not (np.isfinite(gamma) and gamma >= 0.0):
                raise ValueError(f"jump rates must be non-negative, got {gamma}")
            jumps.append((L, gamma))
        object.__setattr__(self, "jumps", tuple(jumps))
        if not np.isfinite(self.gamma_pd):
            raise ValueError("gamma_pd must be finite")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def jump_terms(self) -> tuple:
        """``(K, ((gamma, L, L^dag), ...))`` with K = sum_j gamma_j L_j^dag L_j
        over the explicit jumps or a system's GKLS jumps (the canonical pair
        at (gamma_p, gamma_m), or :func:`ladder_jump_list`), built on first use."""
        jumps = self.jumps
        system = self.system
        if isinstance(system, TwoLevelSystem):
            pair = jump_operators(self.hamiltonian)
            jumps = ((pair.sigma_p, system.gamma_p),
                     (pair.sigma_m, system.gamma_m))
        elif system is not None:
            jumps = ladder_jump_list(system)
        terms = tuple((gamma, L, L.conj().T) for L, gamma in jumps)
        K = np.zeros_like(self.hamiltonian)
        for gamma, L, Ld in terms:
            K += gamma * (Ld @ L)
        return K, terms

    @cached_property
    def compiled(self) -> SplitGenerator:
        """The spec's :class:`SplitGenerator` in the eigenbasis of H.

        An exactly diagonal H is used as it is (``V`` is None); any other H
        is diagonalized by :func:`~ebloch.linalg.hermitian_eig`.  A system
        spec compiles from its transitions (the two sorted eigenlevels, or
        the ladder's); its kind picks only the coherence damping.  Each
        explicit jump, rotated to V^dag L V, must be a single off-diagonal
        matrix unit (entries below ``JUMP_ZERO`` times its largest count as
        zero); otherwise raises ``ValueError`` naming the first jump that is
        not, as such a spec has no population/coherence split.
        """
        return _compile(self)

    @classmethod
    def for_system(
        cls,
        sys: TwoLevelSystem | LadderSystem,
        kind: str | None = None,
        include_unitary: bool = True,
        gamma_pd: float = 0.0,
    ) -> "RhsSpec":
        """The spec of a system under its own Hamiltonian.

        ``kind`` None picks the system's elemental-Bloch kind, ``ebe2`` for a
        :class:`TwoLevelSystem` and ``eben`` for a :class:`LadderSystem`;
        ``gkls`` gives its GKLS twin (the canonical jump pair, or
        :func:`ladder_jump_list`).  On a ladder the two coincide on
        populations and on states confined to a single transition block, but
        treat coherences between a block and outside levels differently; the
        twin is exposed exactly so that this difference can be measured.
        Every kind compiles from the transitions; the twin's jumps serve
        :func:`master_rhs`.
        """
        if kind is None:
            kind = "ebe2" if isinstance(sys, TwoLevelSystem) else "eben"
        return cls(sys.hamiltonian, kind, sys, include_unitary=include_unitary,
                   gamma_pd=gamma_pd)


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
        out = ebe_two_level(M, spec.system)
    elif spec.kind == "eben":
        out = ebe_multi_level(M, spec.system)
    else:
        out = _gkls(M, spec.jump_terms)
    if spec.include_unitary:
        out += -1j * (H @ M - M @ H)
    if spec.gamma_pd != 0.0:
        out += spec.gamma_pd * double_commutator(H, M)
    return out
