"""Tests for the population/coherence split in the eigenbasis of H.

The probed superoperator is the independent oracle in ``tests/oracles.py``;
every test here compares the split against it (its exponential and null
vector included).
"""

import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ebloch.canonical import canonical_experiment
import ebloch.dissipators
import ebloch.systems
from ebloch.dissipators import RhsSpec, SplitGenerator, ladder_jump_list
from ebloch.linalg import herm_part, hermitian_eig, trace_distance
from ebloch.propagate import (
    MIN_EIG_WARN,
    TOP_POP_WARN,
    propagate,
)
from ebloch.stationary import (
    effective_temperature,
    fixed_point,
    gibbs_state,
)
from ebloch.systems import (
    SIGMA_X,
    SIGMA_Z,
    BathModel,
    LadderSystem,
    TwoLevelSystem,
    build_oscillator,
    jump_operators,
    rates_from_bath,
)
from oracles import (
    build_superoperator,
    choi_margin,
    dense_rates,
    formula_rates,
    master_rhs,
    split_apply,
    vectorize,
)
from test_canonical import thermalization_ode_rhs
from test_propagate import EXACT_FLOW

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def split_superoperator(gen) -> np.ndarray:
    """Column-stacking superoperator assembled from (W, C), in the
    eigenbasis of H."""
    n = len(gen.W)
    C = dense_rates(gen)
    S = np.zeros((n * n, n * n), dtype=complex)
    diag = np.arange(n) * (n + 1)
    S[np.ix_(diag, diag)] = gen.W
    for a in range(n):
        for b in range(n):
            if a != b:
                S[a + b * n, a + b * n] = C[a, b]
    return S


@st.composite
def transition_graphs(draw, max_n=16, connected=None, thermal=False):
    """Ladder with random energies and a random (dis)connected transition graph."""
    n = draw(st.integers(2 if connected is not False else 3, max_n))
    gaps = draw(st.lists(st.floats(0.1, 1.5), min_size=n - 1, max_size=n - 1))
    energies = tuple(np.concatenate([[0.0], np.cumsum(gaps)]))
    if connected is None:
        connected = draw(st.booleans()) if n >= 3 else True
    # a random spanning forest: one tree, or two trees split at `cut`
    cut = n if connected else draw(st.integers(1, n - 1))
    groups = [range(0, cut), range(cut, n)]
    pairs = set()
    for group in groups:
        for k in list(group)[1:]:
            pairs.add((draw(st.integers(group[0], k - 1)), k))
    for _ in range(draw(st.integers(0, n))):
        group = groups[draw(st.integers(0, 1))] if not connected else groups[0]
        if len(group) >= 2:
            i, j = sorted(draw(st.lists(st.sampled_from(list(group)), min_size=2,
                                        max_size=2, unique=True)))
            pairs.add((i, j))
    T = draw(st.floats(0.5, 3.0))
    transitions = []
    for i, j in sorted(pairs):
        E_t = energies[j] - energies[i]
        if thermal:
            gp, gm = rates_from_bath(BathModel(draw(st.floats(0.05, 2.0)), T), E_t)
        else:
            gp, gm = draw(st.floats(0.0, 2.0)), draw(st.floats(0.05, 2.0))
        transitions.append((i, j, gp, gm))
    return LadderSystem(energies, transitions)


# (jumps, include_unitary, gamma_pd): jumps picks the oracle's kernel
spec_options = st.tuples(st.booleans(), st.booleans(), st.sampled_from([0.0, -0.2, -0.3]))


@st.composite
def tilted_two_level(draw):
    """Two-level system with a random gap, rates and Bloch axis; the axes
    (0, 0, +-1) give an exactly diagonal H, with descending energies for +1."""
    axis = draw(st.one_of(
        st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]),
        st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)))
    eps = np.array(axis) / np.linalg.norm(axis)
    return TwoLevelSystem(draw(st.floats(0.2, 3.0)), tuple(eps),
                          draw(st.floats(0.0, 2.0)), draw(st.floats(0.05, 2.0)))


def rotated_superoperator(spec, V, jumps=False) -> np.ndarray:
    """The probed superoperator in the eigenbasis V of H (as it is for V
    None): vec(V^dag rho V) = kron(V^T, V^dag) vec(rho)."""
    S = build_superoperator(spec, jumps)
    if V is None:
        return S
    U = np.kron(V.conj(), V)
    return U.conj().T @ S @ U


def assert_split_matches_probe(spec, jumps=False):
    gen = spec.compiled
    S = rotated_superoperator(spec, gen.V, jumps)
    err = np.abs(split_superoperator(gen) - S).max()
    assert err <= 1e-13 * max(1.0, np.abs(S).max())


def sigma_x_on_sigma_z():
    """sigma_x under H = sigma_z/2 is not one matrix unit in the eigenbasis."""
    return RhsSpec(SIGMA_Z / 2, jumps=((SIGMA_X, 1.0),))


def oscillator_a(N=4):
    """The covariant oscillator jump a, over N - 1 transitions at once."""
    a = np.diag(np.sqrt(np.arange(1.0, N)), 1)
    return RhsSpec(np.diag(np.arange(float(N))), jumps=((a, 1.0),))


# ------------------------------------------------------------- the split


@SETTINGS
@given(transition_graphs(), spec_options)
def test_split_matches_probed_superoperator(lad, options):
    jumps, include_unitary, gamma_pd = options
    spec = RhsSpec.for_system(lad, include_unitary=include_unitary, gamma_pd=gamma_pd)
    assert_split_matches_probe(spec, jumps)


@SETTINGS
@given(tilted_two_level(), spec_options)
def test_eigenbasis_split_matches_rotated_probe_on_two_level_specs(sys2, options):
    jumps, include_unitary, gamma_pd = options
    spec = RhsSpec.for_system(sys2, include_unitary=include_unitary, gamma_pd=gamma_pd)
    assert_split_matches_probe(spec, jumps)


@SETTINGS
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from([0.0, -0.2, -0.3]))
def test_eigenbasis_split_matches_rotated_probe_on_closed_systems(n, seed, include_unitary,
                                                                  gamma_pd):
    A = np.random.default_rng(seed).standard_normal((n, 2 * n)).view(complex)
    spec = RhsSpec(A + A.conj().T, include_unitary=include_unitary, gamma_pd=gamma_pd)
    assert spec.compiled.V is not None
    assert_split_matches_probe(spec)


@pytest.mark.parametrize("kernel", ["ebe2", "gkls"])
def test_descending_diagonal_two_level_transition_starts_at_level_1(kernel):
    # eps = (0, 0, 1) gives H = diag(E/2, -E/2): level 1 is the lower one
    spec = RhsSpec.for_system(TwoLevelSystem(1.0, (0.0, 0.0, 1.0), 0.3, 0.7))
    gen = spec.compiled
    assert gen.V is None
    np.testing.assert_allclose(gen.W, [[-0.7, 0.3], [0.7, -0.3]], rtol=1e-15, atol=0.0)
    # and so does each kernel: the populations are entries 0 and 3 of vec(rho)
    S = build_superoperator(spec, jumps=kernel == "gkls")
    np.testing.assert_allclose(S[np.ix_([0, 3], [0, 3])], gen.W, rtol=0.0, atol=1e-15)


def test_split_covers_transition_specs_only():
    bath = BathModel(1.0, 1.0)
    lad = build_oscillator(4, 1.0, "harmonic", bath)
    assert RhsSpec.for_system(lad).compiled.V is None
    assert RhsSpec(np.diag([0.0, 1.0, 3.0])).compiled.V is None  # closed

    gp, gm = rates_from_bath(bath, 1.0)
    sys2 = TwoLevelSystem(1.0, (0.6, 0.0, 0.8), gp, gm)
    _, V = hermitian_eig(sys2.hamiltonian)
    for spec in (RhsSpec.for_system(sys2), RhsSpec(sys2.hamiltonian)):
        np.testing.assert_array_equal(spec.compiled.V, V)

    H = lad.hamiltonian
    unit = np.zeros((4, 4))
    unit[1, 0] = 1.0
    two_entries = unit.copy()
    two_entries[2, 1] = 1.0
    on_diagonal = np.diag([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="jump 0 "):
        RhsSpec(H, jumps=((two_entries, 1.0),)).compiled
    with pytest.raises(ValueError, match="jump 1 "):
        RhsSpec(H, jumps=((unit, 1.0), (on_diagonal, 1.0))).compiled
    with pytest.raises(ValueError, match="jump 0 "):
        RhsSpec(H, jumps=((np.zeros((4, 4)), 1.0),)).compiled
    with pytest.raises(ValueError, match="own Hamiltonian"):
        RhsSpec(H + 0.1 * two_entries + 0.1 * two_entries.T, system=lad).compiled
    with pytest.raises(ValueError, match="own Hamiltonian"):
        RhsSpec(SIGMA_X / 2, system=sys2).compiled


def test_a_jump_whose_rate_overflows_is_rejected_at_compile():
    # gamma |L[x, y]|^2 = 4e308 is inf: level y's out-rate, and W with it
    L = np.zeros((3, 3))
    L[0, 2] = 2.0
    spec = RhsSpec(np.diag([0.0, 1.0, 2.5]), jumps=((L, 1e308),))
    # no RuntimeWarning first: pytest turns one into an error
    with pytest.raises(ValueError, match="^level 2 has a non-finite out-rate inf$"):
        spec.compiled


def test_an_explicit_hamiltonian_is_checked_when_the_spec_is_made():
    with pytest.raises(ValueError, match="^Hamiltonian is not Hermitian within tolerance$"):
        RhsSpec(np.array([[0.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
        gibbs_state(np.array([[0.0, 1.0], [0.0, 1.0]]), 1.0)


def test_two_level_specs_compile_to_the_bits_of_hermitian_eig():
    # a system's own H is not checked again at compile, and decomposes the same
    rng = np.random.default_rng(33)
    for _ in range(1000):
        v = rng.standard_normal(3)
        sys2 = TwoLevelSystem(float(rng.uniform(0.2, 5.0)), tuple(v / np.linalg.norm(v)),
                              0.3, 0.7)
        gen = RhsSpec.for_system(sys2).compiled
        E, V = hermitian_eig(sys2.hamiltonian)
        assert gen.E.tobytes() == E.tobytes() and gen.V.tobytes() == V.tobytes()


@pytest.mark.parametrize("make_spec", [sigma_x_on_sigma_z, oscillator_a])
def test_propagate_and_fixed_point_reject_specs_without_a_split(make_spec):
    spec = make_spec()
    rho0 = np.eye(spec.dim, dtype=complex) / spec.dim
    with pytest.raises(ValueError, match="jump 0 .* not a single off-diagonal"):
        propagate(spec, rho0, 1.0, 0.1)
    with pytest.raises(ValueError, match="jump 0 .* not a single off-diagonal"):
        fixed_point(spec)


# ------------------------------------------------------ the coherence rates


def random_rate_specs(rng, count):
    """Specs of every route, each with a random include_unitary and a
    gamma_pd that is negative or zero: tilted two-level specs; ladders whose
    top levels no transition touches; explicit jump lists, each jump one
    eigenlevel move, under a diagonal or a tilted H."""
    for k in range(count):
        options = {"include_unitary": bool(rng.integers(2)),
                   "gamma_pd": float(rng.choice([-1.0, 0.0, -1.0]) * rng.uniform(0.01, 0.5))}
        route = k % 3
        if route == 0:
            v = rng.standard_normal(3)
            system = TwoLevelSystem(float(rng.uniform(0.2, 3.0)), tuple(v / np.linalg.norm(v)),
                                    float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.05, 2.0)))
            yield RhsSpec.for_system(system, **options)
        elif route == 1:
            n = int(rng.integers(3, 9))
            energies = tuple(np.cumsum(rng.uniform(0.1, 1.5, n)) - 0.5)
            touched = int(rng.integers(2, n + 1))
            pairs = [(i, j) for j in range(touched) for i in range(j)]
            keep = sorted(rng.permutation(len(pairs))[:int(rng.integers(1, len(pairs) + 1))])
            transitions = [(*pairs[q], float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.05, 1.0)))
                           for q in keep]
            yield RhsSpec.for_system(LadderSystem(energies, transitions), **options)
        else:
            n = int(rng.integers(2, 7))
            H = np.diag(rng.uniform(-1.0, 1.0, n)).astype(complex)
            if rng.integers(2):
                A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                H = H + 0.3 * (A + A.conj().T)
            V = RhsSpec(H).compiled.V
            jumps = []
            for _ in range(int(rng.integers(0, 5))):
                x, y = rng.choice(n, 2, replace=False)
                L = np.zeros((n, n), dtype=complex)
                L[x, y] = rng.uniform(0.3, 1.5) * np.exp(2j * np.pi * rng.uniform())
                jumps.append((L if V is None else V @ L @ V.conj().T,
                              float(rng.uniform(0.0, 1.0))))
            yield RhsSpec(H, jumps=tuple(jumps), **options)


def test_rates_are_the_bits_of_the_dense_formulas():
    rng = np.random.default_rng(28)
    for spec in random_rate_specs(rng, 240):
        gen = spec.compiled
        C = formula_rates(spec)
        assert dense_rates(gen).tobytes() == C.tobytes()
        # pairs in any order and shape, as propagate asks for its tracked ones
        a, b = np.nonzero(~np.eye(spec.dim, dtype=bool))
        order = rng.permutation(len(a))
        assert gen.rates(a[order], b[order]).tobytes() == C[a[order], b[order]].tobytes()


def test_every_accepted_spec_is_completely_positive():
    # two-level, ladder and explicit-jump specs with dim <= 6, under each
    # include_unitary and gamma_pd, and each kernel of a system spec
    rng = np.random.default_rng(39)
    checked = 0
    for drawn in random_rate_specs(rng, 150):
        if drawn.dim > 6:
            continue
        for include_unitary in (True, False):
            for gamma_pd in (0.0, -0.3):
                spec = dataclasses.replace(drawn, include_unitary=include_unitary,
                                           gamma_pd=gamma_pd)
                for jumps in {False, spec.system is not None}:
                    S = build_superoperator(spec, jumps)
                    assert choi_margin(S) >= -1e-12 * max(1.0, np.abs(S).max())
                    checked += 1
    assert checked >= 600


def test_choi_margin_finds_a_double_commutator_of_the_growing_sign():
    # +0.4 [H, [H, rho]], added outside RhsSpec, is the jump L = H at rate -0.8
    sys2 = TwoLevelSystem(1.0, (0.6, 0.0, 0.8), 0.3, 0.7)
    lad = build_oscillator(5, 1.0, "harmonic", BathModel(1.0, 1.0))
    for spec in (RhsSpec.for_system(sys2), RhsSpec.for_system(lad, gamma_pd=-0.3)):
        H, eye = spec.hamiltonian, np.eye(spec.dim)
        grow = np.kron(eye, H @ H) - 2.0 * np.kron(H.T, H) + np.kron((H @ H).T, eye)
        S = build_superoperator(spec)
        assert choi_margin(S) >= -1e-12 * np.abs(S).max()
        assert choi_margin(S + 0.4 * grow) < -0.1


@EXACT_FLOW
@pytest.mark.parametrize("gamma_pd", [0.0, -0.2])
def test_propagate_evaluates_the_rates_of_its_tracked_pairs_once(monkeypatch, gamma_pd):
    calls = []
    rates = SplitGenerator.rates

    def spy(self, a, b):
        calls.append((np.copy(a), np.copy(b)))
        return rates(self, a, b)

    monkeypatch.setattr(SplitGenerator, "rates", spy)
    lad = build_oscillator(6, 1.0, "harmonic", BathModel(1.0, 0.8))
    spec = RhsSpec.for_system(lad, gamma_pd=gamma_pd)
    rho0 = np.diag(np.full(6, 1 / 6)).astype(complex)
    for i, j in ((0, 1), (1, 3), (2, 5)):
        rho0[i, j] = rho0[j, i] = 0.02
    propagate(spec, rho0, 0.5, 0.05)
    assert len(calls) == 1
    a, b = calls[0]
    assert a.tolist() == [0, 1, 2] and b.tolist() == [1, 3, 5]


def test_split_generator_holds_no_dense_complex_matrix():
    rng = np.random.default_rng(30)
    for spec in random_rate_specs(rng, 90):
        gen = spec.compiled
        assert list(vars(gen)) == ["E", "W", "rule", "V"]
        assert gen.rule == (spec.gamma_pd, spec.include_unitary)
        dense = [name for name, value in vars(gen).items()
                 if np.iscomplexobj(value) and np.shape(value) == (spec.dim, spec.dim)]
        # a tilted H keeps its eigenbasis; nothing else is an N x N complex array
        assert dense == ([] if gen.V is None else ["V"])


# ------------------------------------- system specs compile from transitions


@pytest.mark.parametrize("rule", ["harmonic", "constant"])
@pytest.mark.parametrize("T", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("include_unitary, gamma_pd", [(True, -0.1), (False, 0.0)])
def test_ladder_gkls_twin_compiles_to_the_bits_of_its_jump_list(rule, T, include_unitary,
                                                                gamma_pd):
    for N in range(2, 34):
        lad = build_oscillator(N, 1.0, rule, BathModel(1.0, T))
        gen = RhsSpec.for_system(lad, include_unitary=include_unitary,
                                 gamma_pd=gamma_pd).compiled
        scanned = RhsSpec(lad.hamiltonian, jumps=ladder_jump_list(lad),
                          include_unitary=include_unitary, gamma_pd=gamma_pd).compiled
        np.testing.assert_array_equal(gen.W, scanned.W)
        np.testing.assert_array_equal(dense_rates(gen), dense_rates(scanned))


def test_two_level_canonical_jump_pair_compiles_to_the_system_generator():
    # the explicit jumps pass through the eigenbasis rotation V^dag L V, so
    # only E and V keep their bits
    rng = np.random.default_rng(19)
    for _ in range(300):
        v = rng.standard_normal(3)
        gp, gm = rng.uniform(0.05, 2.0, 2)
        sys2 = TwoLevelSystem(float(rng.uniform(0.2, 5.0)), tuple(v / np.linalg.norm(v)),
                              float(gp), float(gm))
        system = RhsSpec.for_system(sys2, gamma_pd=-0.2).compiled
        pair = jump_operators(sys2.hamiltonian)
        jumps = RhsSpec(sys2.hamiltonian, jumps=((pair.sigma_p, gp), (pair.sigma_m, gm)),
                        gamma_pd=-0.2).compiled
        for field in ("E", "V"):
            np.testing.assert_array_equal(getattr(jumps, field), getattr(system, field))
        tol = 1e-14 * (gp + gm)
        np.testing.assert_allclose(jumps.W, system.W, rtol=0.0, atol=tol)
        np.testing.assert_allclose(dense_rates(jumps), dense_rates(system), rtol=0.0, atol=tol)


def test_tilted_two_level_jump_list_and_terms_are_the_bits_of_the_canonical_pair():
    def bits(a):
        return np.ascontiguousarray(a).tobytes()

    rng = np.random.default_rng(43)
    for _ in range(500):
        v = rng.standard_normal(3)
        gp, gm = (float(g) for g in rng.uniform(0.05, 2.0, 2))
        sys2 = TwoLevelSystem(float(rng.uniform(0.2, 5.0)), tuple(v / np.linalg.norm(v)), gp, gm)
        K, terms = RhsSpec.for_system(sys2).jump_terms
        pair = jump_operators(sys2.hamiltonian)
        want = ((gp, pair.sigma_p), (gm, pair.sigma_m))
        # ladder_jump_list takes the eigenbasis of the system's own H
        assert [(g, bits(L)) for L, g in ladder_jump_list(sys2)] == [(g, bits(L)) for g, L in want]
        assert [(g, bits(L), bits(Ld)) for g, L, Ld in terms] == [
            (g, bits(L), bits(L.conj().T)) for g, L in want]
        want_K = np.zeros((2, 2), dtype=complex)
        for g, L in want:
            want_K += g * (L.conj().T @ L)
        assert bits(K) == bits(want_K)


def test_system_specs_solve_and_propagate_without_building_jumps(monkeypatch):
    class Built(Exception):
        pass

    def refuse(*args):
        raise Built(args)

    for module in (ebloch.dissipators, ebloch.systems):
        monkeypatch.setattr(module, "jump_operators", refuse, raising=False)
    monkeypatch.setattr(ebloch.dissipators, "ladder_jump_list", refuse)
    lad = build_oscillator(5, 1.0, "harmonic", BathModel(1.0, 0.8))
    tilted = TwoLevelSystem(1.0, (0.6, 0.0, 0.8), 0.3, 0.7)
    for spec in (RhsSpec.for_system(lad, gamma_pd=-0.1),
                 RhsSpec.for_system(tilted, gamma_pd=-0.1)):
        rho0 = np.full((spec.dim, spec.dim), 0.5 / spec.dim, dtype=complex)
        rho0[np.diag_indices(spec.dim)] = 1.0 / spec.dim
        assert fixed_point(spec).residual <= 1e-12
        propagate(spec, rho0, 0.5, 0.05)
        with pytest.raises(Built):
            master_rhs(rho0, spec, jumps=True)


def test_system_specs_are_checked_at_construction():
    lad = LadderSystem((-0.5, 0.5), [(0, 1, 0.3, 0.7)])
    sys2 = TwoLevelSystem(1.0, (0.0, 0.0, -1.0), 0.3, 0.7)
    with pytest.raises(ValueError, match="no explicit jump list"):
        RhsSpec(lad.hamiltonian, system=lad, jumps=ladder_jump_list(lad))
    with pytest.raises(ValueError, match="own Hamiltonian"):
        RhsSpec(SIGMA_X / 2, system=sys2)


def test_split_rate_matrix_conserves_trace_and_coherences_are_hermitian():
    lad = build_oscillator(6, 1.3, "harmonic", BathModel(1.0, 0.8))
    gen = RhsSpec.for_system(lad, gamma_pd=-0.1).compiled
    np.testing.assert_allclose(gen.W.sum(axis=0), 0.0, atol=1e-15)
    assert np.all(gen.W - np.diag(np.diag(gen.W)) >= 0.0)
    C = dense_rates(gen)
    np.testing.assert_array_equal(C, C.conj().T)
    np.testing.assert_array_equal(np.diag(C), 0.0)


# ------------------------------------------------------------ propagation


@pytest.mark.parametrize("kernel", ["eben", "gkls"])
@pytest.mark.parametrize("N, gamma_pd, include_unitary",
                         [(4, 0.0, True), (9, -0.2, False), (16, -0.05, True)])
def test_split_expm_matches_dense_trajectory(kernel, N, gamma_pd, include_unitary):
    lad = build_oscillator(N, 0.7, "harmonic", BathModel(1.0, 1.2))
    spec = RhsSpec.for_system(lad, include_unitary=include_unitary, gamma_pd=gamma_pd)
    rng = np.random.default_rng(N)
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    rho0 = A @ A.conj().T
    rho0 /= np.trace(rho0)
    kw = dict(t_final=1.0, dt=0.05, record_every=7)  # gaps 7, 7, 6
    traj = propagate(spec, rho0, **kw)
    np.testing.assert_allclose(traj.times, np.array([0, 7, 14, 20]) * 0.05)
    S = build_superoperator(spec, jumps=kernel == "gkls")
    dense = [(scipy.linalg.expm(S * t) @ vectorize(rho0)).reshape(N, N, order="F")
             for t in traj.times]
    worst = max(np.abs(a - b).max() for a, b in zip(traj.states, dense))
    assert worst <= 1e-12, f"split vs dense expm {worst:.3e}"
    # the warnings the dense states call for, and no others
    leak = bool(max(s[-1, -1].real for s in dense) > TOP_POP_WARN)
    negative = bool(min(np.linalg.eigvalsh(herm_part(s)).min() for s in dense) < MIN_EIG_WARN)
    assert [w.split(":")[0] for w in traj.warnings] == \
        ["positivity violated"] * negative + ["truncation leak"] * leak


def test_generator_rhs_norm_matches_master_rhs():
    rng = np.random.default_rng(11)
    lad = build_oscillator(7, 1.3, "harmonic", BathModel(1.0, 0.9))
    tilted = TwoLevelSystem(1.0, (0.6, 0.0, 0.8), 0.3, 0.7)
    cases = [(RhsSpec.for_system(lad, gamma_pd=-0.1), False),
             (RhsSpec.for_system(lad, include_unitary=False), True),
             (RhsSpec.for_system(tilted, gamma_pd=-0.2), False),
             (RhsSpec.for_system(tilted, include_unitary=False), True)]
    assert [s.compiled.V is None for s, _ in cases] == [True, True, False, False]
    for spec, jumps in cases:
        gen = spec.compiled
        for _ in range(5):
            A = rng.standard_normal((spec.dim,) * 2) + 1j * rng.standard_normal((spec.dim,) * 2)
            rho = A + A.conj().T
            ref = np.linalg.norm(master_rhs(rho, spec, jumps))
            assert abs(np.linalg.norm(split_apply(gen, gen.rotate_in(rho))) - ref) <= 1e-12 * ref


@EXACT_FLOW
def test_split_propagate_evaluates_no_master_rhs(monkeypatch):
    # nor any kernel that master_rhs assembles from
    lad = build_oscillator(8, 1.0, "harmonic", BathModel(1.0, 1.0))
    spec = RhsSpec.for_system(lad, gamma_pd=-0.1)
    calls = []
    for name in ("ebe_two_level", "ebe_multi_level", "_gkls", "double_commutator"):
        kernel = getattr(ebloch.dissipators, name)
        monkeypatch.setattr(ebloch.dissipators, name,
                            lambda *a, k=kernel: calls.append(1) or k(*a))
    traj = propagate(spec, gibbs_state(lad.hamiltonian, 2.0), 1.0, 0.01, 10)
    assert len(traj.times) == 11
    assert not calls


# ----------------------------------------------------------- fixed points


def probed_fixed_point(spec, jumps=False):
    """(multiplicity, spectral gap, state) from eig of the superoperator
    probed through the kernel that ``jumps`` picks: the state is the
    trace-normalized Hermitian part of the near-null eigenvector with the
    largest trace."""
    ev, vecs = np.linalg.eig(build_superoperator(spec, jumps))
    absvals = np.abs(ev)
    decaying = ev.real < -1e-10
    gap = float(-ev[decaying].real.max()) if decaying.any() else math.nan
    near = np.flatnonzero(absvals <= max(1e-10, absvals.min()))
    modes = [vecs[:, k].reshape(spec.dim, spec.dim, order="F") for k in near]
    rho = herm_part(max(modes, key=lambda m: abs(m.trace())))
    return int(np.sum(absvals <= 1e-10)), gap, rho / rho.trace().real


def _compare_fixed_points(spec, jumps, compare_state):
    split = fixed_point(spec)
    multiplicity, gap, rho = probed_fixed_point(spec, jumps)
    assert split.multiplicity == multiplicity
    if math.isnan(gap):
        assert math.isnan(split.spectral_gap)
    else:
        assert split.spectral_gap == pytest.approx(gap, rel=1e-8)
    if compare_state:
        assert trace_distance(split.rho_stationary, rho) <= 1e-9
        T = effective_temperature(spec)
        if T is None:
            assert math.isnan(split.gibbs_distance)
        else:
            gibbs_distance = trace_distance(rho, gibbs_state(spec.hamiltonian, T))
            assert abs(split.gibbs_distance - gibbs_distance) <= 1e-9
    assert split.residual <= 1e-10


@SETTINGS
@given(transition_graphs(connected=True, thermal=True), spec_options)
def test_split_fixed_point_matches_probed_on_connected_graphs(lad, options):
    jumps, include_unitary, gamma_pd = options
    spec = RhsSpec.for_system(lad, include_unitary=include_unitary, gamma_pd=min(gamma_pd, 0.0))
    _compare_fixed_points(spec, jumps, compare_state=True)


@SETTINGS
@given(transition_graphs(connected=False), spec_options)
def test_split_fixed_point_matches_probed_on_disconnected_graphs(lad, options):
    # the stationary manifold has several directions, so the picked state
    # depends on the eigenvector basis; spectrum-derived numbers must agree
    jumps, include_unitary, gamma_pd = options
    spec = RhsSpec.for_system(lad, include_unitary=include_unitary, gamma_pd=min(gamma_pd, 0.0))
    _compare_fixed_points(spec, jumps, compare_state=False)
    assert fixed_point(spec).multiplicity >= 2


RATE_SCALES = (1e-12, 1e-6, 1e6, 1e12, 1e14)


def _rates_scaled(system, lam):
    """``system`` with every transition rate multiplied by ``lam``."""
    if isinstance(system, TwoLevelSystem):
        return dataclasses.replace(system, gamma_p=lam * system.gamma_p,
                                   gamma_m=lam * system.gamma_m)
    ii, jj, gp, gm = system.transitions
    return LadderSystem(system.energies, zip(ii.tolist(), jj.tolist(),
                                             (lam * gp).tolist(), (lam * gm).tolist()))


def _assert_fixed_point_is_rate_scale_free(system, include_unitary, gamma_pd):
    # scaling every rate and gamma_pd by lam scales W and the damping of
    # every coherence by lam: p and the multiplicity stay, the gap scales
    ref = fixed_point(RhsSpec.for_system(system, include_unitary=include_unitary,
                                         gamma_pd=gamma_pd))
    for lam in RATE_SCALES:
        report = fixed_point(RhsSpec.for_system(_rates_scaled(system, lam),
                                                include_unitary=include_unitary,
                                                gamma_pd=lam * gamma_pd))
        assert report.multiplicity == ref.multiplicity, lam
        np.testing.assert_allclose(report.p, ref.p, rtol=0, atol=1e-12, err_msg=str(lam))
        assert report.spectral_gap / lam == pytest.approx(ref.spectral_gap, rel=1e-12), lam


RATE_SCALE_SETTINGS = settings(SETTINGS, max_examples=150)
scale_options = st.tuples(st.booleans(), st.sampled_from([0.0, -0.2, -0.3]))


@RATE_SCALE_SETTINGS
@given(transition_graphs(connected=True, thermal=True), scale_options)
def test_fixed_point_of_a_connected_thermal_ladder_is_rate_scale_free(lad, options):
    _assert_fixed_point_is_rate_scale_free(lad, *options)


@RATE_SCALE_SETTINGS
@given(tilted_two_level(), scale_options)
def test_fixed_point_of_a_tilted_two_level_system_is_rate_scale_free(sys2, options):
    _assert_fixed_point_is_rate_scale_free(sys2, *options)


def test_split_fixed_point_beyond_the_superoperator_guard():
    lad = build_oscillator(128, 1.0, "harmonic", BathModel(1.0, 1.0))
    spec = RhsSpec.for_system(lad)
    with pytest.raises(ValueError, match="guard"):
        build_superoperator(spec)
    t0 = time.perf_counter()
    report = fixed_point(spec)
    assert time.perf_counter() - t0 < 10.0
    assert report.multiplicity == 1
    assert report.gibbs_distance <= 1e-8


# ---------------------------------------------------------------- canonical


def test_canonical_closed_form_matches_rk4_of_thermalization_rhs():
    # the reference is a scalar RK4 loop of the public rhs on the same grid;
    # its own truncation error at dt=1e-3 is far below the tolerance
    lad = build_oscillator(6, 2.0, "harmonic", BathModel(1.0, 1.0))
    dt, n = 1e-3, 200
    diag = canonical_experiment(lad, T0=2.0, t_final=n * dt, dt=dt, record_every=50)
    _, _, gp, gm = (a.tolist() for a in lad.transitions)
    E, gamma0, f = lad.energies[1] - lad.energies[0], gp[0] + gm[0], gp[0] / (gp[0] + gm[0])
    bath = BathModel(gamma0, E / math.log((1.0 - f) / f))

    def ode(y):
        return thermalization_ode_rhs(math.exp(y), bath, E, gamma0)

    lna, ref = -E / 2.0, [-E / 2.0]
    for k in range(1, n + 1):
        k1 = ode(lna)
        k2 = ode(lna + 0.5 * dt * k1)
        k3 = ode(lna + 0.5 * dt * k2)
        k4 = ode(lna + dt * k3)
        lna += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k % 50 == 0:
            ref.append(lna)
    np.testing.assert_allclose(diag.lna_ode, ref, rtol=0, atol=1e-12)
