"""Right-hand-side generators for the master equation.

Two independent routes to the same dissipative map exist on purpose:

* :func:`gkls_dissipator` works through explicit jump operators;
* :func:`ebe_two_level` / :func:`ebe_multi_level` work through the
  elemental-Bloch decomposition (mixing toward equal populations, energy
  relaxation, dephasing) with no jump operators at all.

For a canonically scaled two-level pair, and for a ladder against its
pairwise jump list, the two routes coincide as linear maps, which the test
suite checks numerically instead of trusting either implementation.

Every kernel maps one (d, d) matrix or each matrix of an (n, d, d) stack,
checking the shape once per call.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from functools import cached_property

import numpy as np

from .linalg import as_matrix, eigenbasis, is_hermitian
from .systems import LadderSystem, TwoLevelSystem

# entries of a rotated jump below this fraction of its largest count as zero
JUMP_ZERO = 1e-12

_EYE2 = np.eye(2, dtype=complex)


@dataclass(frozen=True, eq=False)
class SplitGenerator:
    """The master equation in the eigenbasis of H: a real rate matrix on the
    populations plus one independent rate per coherence.

    A state s = V^dag rho V in that basis (s = rho when ``V`` is None, for an
    exactly diagonal H) evolves as dp/dt = W p on its populations p = diag(s)
    and as d(s_ab)/dt = C_ab s_ab on each coherence, with C_ab given by
    :meth:`rates`.  ``E`` holds the real level energies in the order of that
    basis, so H = V diag(E) V^dag.  ``W`` is real, with non-negative
    off-diagonal rates and zero column sums.  ``rule`` holds what the rates
    read from the spec, ``(gamma_pd, include_unitary)``.  The spectrum is
    eig(W) plus every C_ab with a != b, all with Re <= 0: W is a rate matrix
    (Gershgorin), and Re C_ab = gamma_pd w_ab^2 - Gamma_ab with gamma_pd <= 0.
    """

    E: np.ndarray
    W: np.ndarray
    rule: tuple
    V: np.ndarray | None

    def rates(self, a, b) -> np.ndarray:
        """C_ab = -i w_ab [include_unitary] - Gamma_ab + gamma_pd w_ab^2 for
        broadcastable index arrays a != b, w_ab = E_a - E_b, where Gamma_ab
        is half the sum of the out-rates -W_aa and -W_bb of the two levels."""
        gamma_pd, include_unitary = self.rule
        w = self.E[a] - self.E[b]
        # 0.0 - W_aa is level a's out-rate to the bit, +0.0 included
        damping = 0.5 * ((0.0 - self.W[a, a]) + (0.0 - self.W[b, b]))
        c = (gamma_pd * w * w - damping).astype(complex)
        return c - 1j * w if include_unitary else c

    def rotate_in(self, rho: np.ndarray) -> np.ndarray:
        """V^dag rho V: a matrix of the original basis in the eigenbasis."""
        return rho if self.V is None else self.V.conj().T @ rho @ self.V

    def rotate_out(self, s: np.ndarray) -> np.ndarray:
        """V s V^dag: a matrix of the eigenbasis in the original basis."""
        return s if self.V is None else self.V @ s @ self.V.conj().T


def _compile(spec: "RhsSpec") -> SplitGenerator:
    """(E, W, rule, V) of a spec; raises ValueError when it does not split
    or a level's out-rate is not finite."""
    energies, V = eigenbasis(spec.hamiltonian)
    n = spec.dim
    # population moves: rate[k] carries population from level src[k] to dst[k]
    if spec.system is None:
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
            with np.errstate(over="ignore"):  # an inf out-rate is rejected below
                dst[k], src[k], rate[k] = x, y, gamma * abs(L[x, y]) ** 2
    else:
        ii, jj, gp, gm = spec.system.transitions
        # gp lifts population from i to j, gm lowers it from j to i
        dst, src = np.concatenate([jj, ii]), np.concatenate([ii, jj])
        rate = np.concatenate([gp, gm])
    out = np.bincount(src, rate, minlength=n)
    if not np.isfinite(out).all():  # each entry of W is at most its source's out-rate
        k = int(np.argmin(np.isfinite(out)))
        raise ValueError(f"level {k} has a non-finite out-rate {out[k]:g}")
    W = np.bincount(dst * n + src, rate, minlength=n * n).reshape(n, n)
    # 0 - out-rates rather than their negation: a level without any keeps a +0.0
    W[np.arange(n), np.arange(n)] -= out
    return SplitGenerator(energies, W, (spec.gamma_pd, spec.include_unitary), V)


@dataclass(frozen=True, eq=False)
class RhsSpec:
    """Everything needed to evaluate d(rho)/dt.

    A spec holds at most one ``system`` (a :class:`TwoLevelSystem` or a
    :class:`LadderSystem`); it then runs under that system's own Hamiltonian
    and takes no ``jumps``, as it compiles from the system's transitions.
    Other specs carry their ``jumps`` as given (none: a closed system).
    Every field after ``hamiltonian`` is keyword-only.

    ``gamma_pd`` is the coefficient with which the double commutator
    [H, [H, rho]] is added to the assembled equation.  It must be finite and
    at most 0: gamma_pd [H, [H, rho]] is then the GKLS jump L = H at rate
    -2 gamma_pd, which damps each coherence at the squared gap, so every
    accepted spec is completely positive.  A positive value, under which the
    coherences would grow, raises ``ValueError`` naming the value.
    """

    hamiltonian: np.ndarray
    _: KW_ONLY
    system: TwoLevelSystem | LadderSystem | None = None
    jumps: tuple = ()
    include_unitary: bool = True
    gamma_pd: float = 0.0

    def __post_init__(self):
        H = as_matrix(self.hamiltonian)
        object.__setattr__(self, "hamiltonian", H)
        system = self.system
        if system is not None and (self.jumps or not (H is system.hamiltonian
                                                   or np.array_equal(H, system.hamiltonian))):
            raise ValueError("a system spec runs under that system's own Hamiltonian "
                             "and takes no explicit jump list")
        if system is None and not is_hermitian(H):  # a system's own H is Hermitian as built
            raise ValueError("Hamiltonian is not Hermitian within tolerance")
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
        if not (self.gamma_pd <= 0.0 and np.isfinite(self.gamma_pd)):
            raise ValueError(f"gamma_pd must be finite and <= 0, got {self.gamma_pd}")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def jump_terms(self) -> tuple:
        """``(K, ((gamma, L, L^dag), ...))`` with K = sum_j gamma_j L_j^dag L_j
        over the explicit jumps or a system's :func:`ladder_jump_list` in the
        eigenbasis of H (the canonical pair for two levels), built on first use."""
        jumps = self.jumps if self.system is None else ladder_jump_list(self.system)
        terms = tuple((gamma, L, L.conj().T) for L, gamma in jumps)
        K = np.zeros_like(self.hamiltonian)
        for gamma, L, Ld in terms:
            K += gamma * (Ld @ L)
        return K, terms

    @cached_property
    def compiled(self) -> SplitGenerator:
        """The spec's :class:`SplitGenerator` in the eigenbasis of H.

        The basis is that of :func:`~ebloch.linalg.eigenbasis`: an exactly
        diagonal H is used as it is (``V`` is None).  A system spec compiles
        from its ``transitions``, the same generator as its GKLS jump list;
        those of a two-level system are indexed in this basis.  Each
        explicit jump, rotated to V^dag L V, must be a single off-diagonal
        matrix unit (entries below ``JUMP_ZERO`` times its largest count as
        zero); otherwise raises ``ValueError`` naming the first jump that is
        not, as such a spec has no population/coherence split.  A level whose
        out-rate is not finite raises ``ValueError`` naming it.
        """
        return _compile(self)

    @classmethod
    def for_system(
        cls,
        sys: TwoLevelSystem | LadderSystem,
        *,
        include_unitary: bool = True,
        gamma_pd: float = 0.0,
    ) -> "RhsSpec":
        """The spec of a system under its own Hamiltonian.  Its elemental-Bloch
        kernel (:func:`ebe_two_level` or :func:`ebe_multi_level`) and its GKLS
        jump list (:attr:`jump_terms`) are two routes to this one equation."""
        return cls(sys.hamiltonian, system=sys, include_unitary=include_unitary,
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
    spec = RhsSpec(np.zeros(M.shape[-1:] * 2), jumps=jumps)
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
    """Multi-level elemental-Bloch dissipator, jump-free: each transition's
    two-level equation, within its block and between it and the other levels.

    Per transition t on levels i and j, E_j > E_i, with gap E_t = E_j - E_i,
    partial projector I_t, its complement Q_t = 1 - I_t, partial Hamiltonian
    H_t = I_t H I_t, h_t = (H_t - Tr H_t * I_t/2)/E_t and partial state
    rho_t = I_t rho I_t:

        -(gp+gm)(rho_t - Tr rho_t * I_t/2) + (gp-gm) h_t Tr rho_t
        + (gp+gm)[H_t, [H_t, rho_t]]/(2 E_t^2)
        - (gp+gm)/4 (I_t rho Q_t + Q_t rho I_t) - (gm-gp)/2 (h_t rho Q_t + Q_t rho h_t)

    For the diagonal ladder H, h_t = (P_j - P_i)/2 and E_t cancels: t moves
    gp rho_ii - gm rho_jj from i to j and damps rho_ij at (gp+gm)/2, and
    rho_ik at gp/2 and rho_jk at gm/2 for every level k outside the block,
    half of t's out-rates gp from i and gm from j.  Summed over transitions,
    with r_a the total out-rate of level a, every entry decays as
    -(r_a + r_b)/2 rho_ab and the diagonal gains the in-flows gp rho_ii at j
    and gm rho_jj at i: the pairwise GKLS dissipator of
    :func:`ladder_jump_list`, evaluated below in that closed form.
    """
    M = _as_states(rho, sys.N)
    ii, jj, gp, gm = sys.transitions
    r = np.bincount(ii, gp, minlength=sys.N) + np.bincount(jj, gm, minlength=sys.N)
    out = -0.5 * (r[:, None] + r) * M
    np.add.at(out, (..., jj, jj), gp * M[..., ii, ii])
    np.add.at(out, (..., ii, ii), gm * M[..., jj, jj])
    return out


def double_commutator(H, rho) -> np.ndarray:
    """[H, [H, rho]] of one matrix or of each matrix in a stack."""
    H = as_matrix(H)
    M = _as_states(rho, len(H))
    inner = H @ M - M @ H
    return H @ inner - inner @ H


def ladder_jump_list(sys: TwoLevelSystem | LadderSystem) -> tuple:
    """Pairwise-GKLS jump list of a system in the eigenbasis of its H: per
    transition, V|j><i|V^dag and its adjoint at gamma_p and gamma_m, with the
    ``V`` of :func:`~ebloch.linalg.eigenbasis` (for a ladder, the matrix units)."""
    V = eigenbasis(sys.hamiltonian)[1]
    jumps = []
    for i, j, gp, gm in zip(*sys.transitions):
        if V is None:
            up = np.zeros_like(sys.hamiltonian)
            up[j, i] = 1.0
            down = up.T.copy()
        else:
            up = V[:, j:j + 1] * V[:, i].conj()
            down = up.conj().T  # jump_operators' sigma_m to the bit; V|i><j|V^dag is not
        jumps += [(up, gp), (down, gm)]
    return tuple(jumps)
