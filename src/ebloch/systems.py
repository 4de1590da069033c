"""System builders: two-level systems, canonically scaled jump operators,
thermal baths, and N-level ladders with per-transition exchange rates.

The jump-operator scaling is constructive: building sigma_p from unit
eigenvectors already pins the free overall scale so that
``[sigma_p, sigma_m] = 2H/E`` and ``{sigma_p, sigma_m} = 1`` hold without
any a-posteriori rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .linalg import hermitian_eig, is_diagonal

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# every jump-operator identity residual must be at most this for ``passed``
ALGEBRA_TOL = 1e-12


def _check_rate(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be a finite non-negative rate, got {value}")


def _unit_bloch_vector(eps) -> tuple[float, float, float]:
    v = np.asarray(eps, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"eps must be a real 3-vector, got shape {v.shape}")
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("eps must be a nonzero direction")
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"eps must be unit length within 1e-9, |eps| = {n}")
    v = v / n
    return (float(v[0]), float(v[1]), float(v[2]))


def _set_transitions(system, rows) -> None:
    """Store ``(i, j, gamma_p, gamma_m)`` rows as the read-only arrays ``transitions``."""
    arrays = tuple(np.array([row[k] for row in rows], dtype=np.intp if k < 2 else float)
                   for k in range(4))
    for a in arrays:
        a.flags.writeable = False
    object.__setattr__(system, "transitions", arrays)


@dataclass(frozen=True)
class TwoLevelSystem:
    """Two-level system: gap E, Bloch axis eps and exchange rates.

    ``gamma_p`` is the upward (energy-gaining) rate, ``gamma_m`` the downward
    one.  Pure dephasing is not a property of the system: its
    double-commutator coefficient ``gamma_pd`` (at most 0) belongs to
    :class:`ebloch.dissipators.RhsSpec`.

    In the eigenbasis of H it is a one-transition ladder: ``energies`` +-E/2 in
    :func:`~ebloch.linalg.eigenbasis`' order and one read-only ``transitions`` row.
    """

    E: float
    eps: tuple[float, float, float]
    gamma_p: float = 0.0
    gamma_m: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.E) and self.E > 0.0):
            raise ValueError(f"E must be a positive energy gap, got {self.E}")
        object.__setattr__(self, "eps", _unit_bloch_vector(self.eps))
        _check_rate("gamma_p", self.gamma_p)
        _check_rate("gamma_m", self.gamma_m)
        H, half = build_two_level_hamiltonian(self.E, self.eps), 0.5 * self.E
        # eigenbasis keeps a diagonal H (real, finite here) as it stands, else sorts up
        lower = int(is_diagonal(H) and H[0, 0].real > H[1, 1].real)
        object.__setattr__(self, "hamiltonian", H)
        object.__setattr__(self, "energies", (half, -half) if lower else (-half, half))
        _set_transitions(self, [(lower, 1 - lower, self.gamma_p, self.gamma_m)])

    @property
    def gamma_sum(self) -> float:
        return self.gamma_p + self.gamma_m

    @property
    def gamma_diff(self) -> float:
        return self.gamma_p - self.gamma_m


@dataclass(frozen=True, eq=False)
class JumpOperatorPair:
    """Canonically scaled raising/lowering pair, sigma_m = sigma_p^dagger:
    two 2x2 matrices, or two (n, 2, 2) stacks holding one pair per index."""

    sigma_p: np.ndarray
    sigma_m: np.ndarray

    def __post_init__(self):
        sp = np.asarray(self.sigma_p, dtype=complex)
        sm = np.asarray(self.sigma_m, dtype=complex)
        if sp.ndim not in (2, 3) or sp.shape[-2:] != (2, 2) or sm.shape != sp.shape:
            raise ValueError("jump operators must be 2x2, or (n, 2, 2) stacks of one shape")
        object.__setattr__(self, "sigma_p", sp)
        object.__setattr__(self, "sigma_m", sm)


@dataclass(frozen=True)
class BathModel:
    """Thermal bath: coupling strength gamma >= 0 and temperature T > 0."""

    gamma: float
    T: float

    def __post_init__(self):
        _check_rate("gamma", self.gamma)
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"T must be a positive temperature, got {self.T}")


@dataclass(frozen=True, eq=False)
class LadderSystem:
    """N-level diagonal Hamiltonian plus explicit pairwise transitions.

    ``transitions`` takes one ``(i, j, gamma_p, gamma_m)`` row per channel
    and is stored as the read-only arrays ``(ii, jj, gamma_p, gamma_m)`` in
    the order given; gamma_p lifts population from level i to level j.
    Energies need not be monotone, but level j must lie above level i.
    Detailed balance is a property of how the rates were constructed (see
    :func:`build_oscillator`), not an invariant, so non-thermal rate sets
    can be explored.
    """

    energies: tuple[float, ...]
    transitions: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        energies = tuple(float(e) for e in self.energies)
        if len(energies) < 2:
            raise ValueError("a ladder needs at least two levels")
        for k, e in enumerate(energies):
            if not math.isfinite(e):
                raise ValueError(f"energy of level {k} must be finite, got {e}")
        object.__setattr__(self, "energies", energies)
        rows = list(self.transitions)
        seen = set()
        for i, j, gp, gm in rows:
            name = f"transition ({i}, {j})"
            if not (0 <= i < len(energies) and 0 <= j < len(energies)):
                raise ValueError(f"{name} out of range for N={len(energies)}")
            if i == j:
                raise ValueError(f"{name} needs two distinct levels")
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise ValueError(f"{name} repeats the pair {pair}")
            seen.add(pair)
            _check_rate(f"{name} gamma_p", gp)
            _check_rate(f"{name} gamma_m", gm)
            gap = energies[j] - energies[i]
            if not gap > 0.0:
                raise ValueError(f"{name} needs level {j} above level {i}, got gap {gap}")
        _set_transitions(self, rows)

    @property
    def N(self) -> int:
        return len(self.energies)

    @cached_property
    def hamiltonian(self) -> np.ndarray:
        return np.diag(np.asarray(self.energies, dtype=complex))


@dataclass(frozen=True, eq=False)
class AlgebraReport:
    """Frobenius residuals of the seven jump-operator identities.

    Each residual has shape () for one Hamiltonian or (n,) for an
    (n, 2, 2) stack; ``max_residual`` and ``passed`` (every residual <=
    ``ALGEBRA_TOL``) are taken per matrix.
    """

    sq_p: np.ndarray
    sq_m: np.ndarray
    comm: np.ndarray
    anti: np.ndarray
    triple_p: np.ndarray
    triple_m: np.ndarray
    eigenop: np.ndarray

    @property
    def max_residual(self) -> np.ndarray:
        return np.max(list(self.residuals().values()), axis=0)

    @property
    def passed(self) -> np.ndarray:
        return self.max_residual <= ALGEBRA_TOL

    def residuals(self) -> dict[str, np.ndarray]:
        return {
            "sq_p": self.sq_p,
            "sq_m": self.sq_m,
            "comm": self.comm,
            "anti": self.anti,
            "triple_p": self.triple_p,
            "triple_m": self.triple_m,
            "eigenop": self.eigenop,
        }


def build_two_level_hamiltonian(E: float, eps) -> np.ndarray:
    """(E/2)(eps_x sx + eps_y sy + eps_z sz): traceless Hermitian, gap E."""
    if not (math.isfinite(E) and E > 0.0):
        raise ValueError(f"E must be a positive energy gap, got {E}")
    ex, ey, ez = _unit_bloch_vector(eps)
    return 0.5 * E * (ex * SIGMA_X + ey * SIGMA_Y + ez * SIGMA_Z)


def jump_operators(H) -> JumpOperatorPair:
    """Canonical raising/lowering pair for a traceless 2x2 Hamiltonian, or one
    pair per matrix of an (n, 2, 2) stack (then both operators are stacks).

    sigma_p = |s1><s0| built from the unit-normalized eigenvectors under the
    :func:`ebloch.linalg.hermitian_eig` phase convention.  The unit
    normalization is what selects the single representative out of the scaling
    freedom: the pair then satisfies all algebra identities checked by
    :func:`verify_jump_algebra`, in particular ``[H, sigma_p] = E sigma_p``.
    One ``hermitian_eig`` call covers the whole stack; a stack is rejected if
    any of its matrices is not traceless and Hermitian (each within 1e-10 of its largest
    entry) or is degenerate (gap <= 1e-12 max|w|).
    """
    M = np.asarray(H, dtype=complex)
    if M.ndim not in (2, 3) or M.shape[-2:] != (2, 2):
        raise ValueError("jump operators are defined for 2x2 Hamiltonians or (n, 2, 2) stacks")
    if not np.all(np.abs(M[..., 0, 0] + M[..., 1, 1]) <= 1e-10 * np.abs(M).max(axis=(-2, -1))):
        raise ValueError("Hamiltonian must be traceless within 1e-10")
    w, V = hermitian_eig(M)
    if np.any(w[..., 1] - w[..., 0] <= 1e-12 * np.abs(w).max(axis=-1)):
        raise ValueError("Hamiltonian is degenerate: no unique transition pair")
    sigma_p = V[..., :, 1:] * V[..., None, :, 0].conj()
    return JumpOperatorPair(sigma_p, sigma_p.conj().swapaxes(-1, -2))


def verify_jump_algebra(pair: JumpOperatorPair, H, E) -> AlgebraReport:
    """Residuals of the seven identities the canonical pair must satisfy.

    ``H`` is one 2x2 Hamiltonian with gap ``E``, or an (n, 2, 2) stack with
    gaps of shape (n,) and a stacked ``pair``; the residuals then have shape
    () or (n,).  sq_p/sq_m: sigma^2 = 0; comm: [sigma_p, sigma_m] = 2H/E;
    anti: {sigma_p, sigma_m} = 1; triple_p/m: sigma sigma' sigma = sigma;
    eigenop: [H, sigma_p]/E = sigma_p, relative to the gap like comm, so
    that no residual grows with the energy unit.  Residuals are reported even
    when they fail; ``passed`` requires all of them <= ``ALGEBRA_TOL``.
    """
    M = np.asarray(H, dtype=complex)
    sp, sm = pair.sigma_p, pair.sigma_m
    if M.shape != sp.shape:
        raise ValueError("Hamiltonian and jump operators have mismatched dimensions")
    E = np.asarray(E, dtype=float)[..., None, None]
    pm, mp = sp @ sm, sm @ sp
    # one deviation matrix per identity, in AlgebraReport's field order
    deviations = np.stack([sp @ sp, sm @ sm, pm - mp - 2.0 * M / E, pm + mp - np.eye(2),
                           pm @ sp - sp, mp @ sm - sm, (M @ sp - sp @ M) / E - sp])
    return AlgebraReport(*np.linalg.norm(deviations, axis=(-2, -1)))


def fermi(E: float, T: float) -> float:
    """Fermi factor 1/(exp(E/T) + 1), overflow-safe for large |E/T|."""
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"T must be a positive temperature, got {T}")
    try:
        return 1.0 / (1.0 + math.exp(E / T))
    except OverflowError:  # E/T > ~709.78, where the factor rounds to 0
        return 0.0


def rates_from_bath(bath: BathModel, E: float) -> tuple[float, float]:
    """Thermal exchange rates (gamma_p, gamma_m) = gamma * (f(E), 1 - f(E)).

    The sum is exactly ``gamma`` and the ratio gamma_p/gamma_m equals
    exp(-E/T) to round-off (detailed balance).
    """
    if not (math.isfinite(E) and E > 0.0):
        raise ValueError(f"E must be a positive energy gap, got {E}")
    gamma_p = bath.gamma * fermi(E, bath.T)
    return gamma_p, bath.gamma - gamma_p


def build_oscillator(
    N: int,
    E: float,
    coupling: str | Sequence[float],
    bath: BathModel,
) -> LadderSystem:
    """Equally spaced N-level ladder with nearest-neighbour thermal transitions.

    ``coupling`` selects gamma_i for the transition between levels i and i+1:
    'harmonic' gives (i+1)*bath.gamma, 'constant' gives bath.gamma, and an
    explicit sequence of N-1 values is used as-is (bath.gamma is then
    unused).  Per-transition rates follow :func:`rates_from_bath` at
    bath.T, so detailed balance holds on every rung.
    """
    if not isinstance(N, int) or N < 2:
        raise ValueError(f"N must be an integer >= 2, got {N}")
    if not (math.isfinite(E) and E > 0.0):
        raise ValueError(f"E must be a positive level spacing, got {E}")
    if isinstance(coupling, str):
        if coupling not in ("harmonic", "constant"):
            raise ValueError(f"unknown coupling rule {coupling!r}; use "
                             "['constant', 'harmonic'] or an explicit table")
        gammas = [(i + 1 if coupling == "harmonic" else 1) * bath.gamma for i in range(N - 1)]
    else:
        gammas = [float(g) for g in coupling]
        if len(gammas) != N - 1:
            raise ValueError(f"coupling table needs {N - 1} entries, got {len(gammas)}")
    for i, g in enumerate(gammas):
        if not (math.isfinite(g) and g >= 0.0):
            raise ValueError(f"coupling gamma_{i} must be non-negative, got {g}")
    transitions = [(i, i + 1, *rates_from_bath(BathModel(g, bath.T), E))
                   for i, g in enumerate(gammas)]
    return LadderSystem(tuple(i * E for i in range(N)), transitions)
