"""Tests for the population/coherence split in the eigenbasis of H.

The probed superoperator and the stage-wise RK4 step are independent
oracles in ``tests/oracles.py``; every test here compares the split against
one of them (the superoperator's exponential and null vector included).
"""

import math
import sys
import time
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ebloch.canonical import canonical_experiment
import ebloch.dissipators
import ebloch.systems
from ebloch.dissipators import RhsSpec, ladder_jump_list, master_rhs
from ebloch.linalg import herm_part, hermitian_eig, trace_distance
from ebloch.propagate import (
    MIN_EIG_WARN,
    TOP_POP_WARN,
    PropagationError,
    _rk4_matrix,
    propagate,
)
from ebloch.stationary import (
    FixedPointError,
    effective_temperature,
    fixed_point,
    gibbs_state,
)
from ebloch.systems import (
    SIGMA_X,
    SIGMA_Z,
    BathModel,
    LadderSystem,
    TransitionSpec,
    TwoLevelSystem,
    build_oscillator,
    rates_from_bath,
)
from oracles import build_superoperator, split_apply, step_rk4, vectorize
from test_canonical import thermalization_ode_rhs

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def split_superoperator(gen) -> np.ndarray:
    """Column-stacking superoperator assembled from (W, C), in the
    eigenbasis of H."""
    n = len(gen.W)
    S = np.zeros((n * n, n * n), dtype=complex)
    diag = np.arange(n) * (n + 1)
    S[np.ix_(diag, diag)] = gen.W
    for a in range(n):
        for b in range(n):
            if a != b:
                S[a + b * n, a + b * n] = gen.C[a, b]
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
        transitions.append(TransitionSpec(i, j, gp, gm, E_t))
    return LadderSystem(n, energies, tuple(transitions))


spec_options = st.tuples(st.sampled_from(["eben", "gkls"]), st.booleans(),
                         st.sampled_from([0.0, -0.2, 0.3]))
two_level_options = st.tuples(st.sampled_from(["ebe2", "gkls"]), st.booleans(),
                              st.sampled_from([0.0, -0.2, 0.3]))


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


def rotated_superoperator(spec, V) -> np.ndarray:
    """The probed superoperator in the eigenbasis V of H (as it is for V
    None): vec(V^dag rho V) = kron(V^T, V^dag) vec(rho)."""
    S = build_superoperator(spec)
    if V is None:
        return S
    U = np.kron(V.conj(), V)
    return U.conj().T @ S @ U


def assert_split_matches_probe(spec):
    gen = spec.compiled
    S = rotated_superoperator(spec, gen.V)
    err = np.abs(split_superoperator(gen) - S).max()
    assert err <= 1e-13 * max(1.0, np.abs(S).max())


def sigma_x_on_sigma_z():
    """sigma_x under H = sigma_z/2 is not one matrix unit in the eigenbasis."""
    return RhsSpec(SIGMA_Z / 2, "gkls", jumps=((SIGMA_X, 1.0),))


def oscillator_a(N=4):
    """The covariant oscillator jump a, over N - 1 transitions at once."""
    a = np.diag(np.sqrt(np.arange(1.0, N)), 1)
    return RhsSpec(np.diag(np.arange(float(N))), "gkls", jumps=((a, 1.0),))


# ------------------------------------------------------------- the split


@SETTINGS
@given(transition_graphs(), spec_options)
def test_split_matches_probed_superoperator(lad, options):
    kind, include_unitary, gamma_pd = options
    assert_split_matches_probe(RhsSpec.for_system(lad, kind, include_unitary, gamma_pd))


@SETTINGS
@given(tilted_two_level(), two_level_options)
def test_eigenbasis_split_matches_rotated_probe_on_two_level_specs(sys2, options):
    assert_split_matches_probe(RhsSpec.for_system(sys2, *options))


@SETTINGS
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from([0.0, -0.2, 0.3]))
def test_eigenbasis_split_matches_rotated_probe_on_closed_systems(n, seed, include_unitary,
                                                                  gamma_pd):
    A = np.random.default_rng(seed).standard_normal((n, 2 * n)).view(complex)
    spec = RhsSpec(A + A.conj().T, "gkls", include_unitary=include_unitary,
                   gamma_pd=gamma_pd)
    assert spec.compiled.V is not None
    assert_split_matches_probe(spec)


@pytest.mark.parametrize("kind", ["ebe2", "gkls"])
def test_descending_diagonal_two_level_transition_starts_at_level_1(kind):
    # eps = (0, 0, 1) gives H = diag(E/2, -E/2): level 1 is the lower one
    gen = RhsSpec.for_system(TwoLevelSystem(1.0, (0.0, 0.0, 1.0), 0.3, 0.7), kind).compiled
    assert gen.V is None
    np.testing.assert_allclose(gen.W, [[-0.7, 0.3], [0.7, -0.3]], rtol=1e-15, atol=0.0)


def test_split_covers_transition_specs_only():
    bath = BathModel(1.0, 1.0)
    lad = build_oscillator(4, 1.0, "harmonic", bath)
    assert RhsSpec.for_system(lad, "eben").compiled.V is None
    assert RhsSpec.for_system(lad, "gkls").compiled.V is None
    assert RhsSpec(np.diag([0.0, 1.0, 3.0]), "gkls").compiled.V is None  # closed

    gp, gm = rates_from_bath(bath, 1.0)
    sys2 = TwoLevelSystem(1.0, (0.6, 0.0, 0.8), gp, gm)
    _, V = hermitian_eig(sys2.hamiltonian)
    for spec in (RhsSpec.for_system(sys2, "ebe2"), RhsSpec.for_system(sys2, "gkls"),
                 RhsSpec(sys2.hamiltonian, "gkls")):
        np.testing.assert_array_equal(spec.compiled.V, V)

    H = lad.hamiltonian
    unit = np.zeros((4, 4))
    unit[1, 0] = 1.0
    two_entries = unit.copy()
    two_entries[2, 1] = 1.0
    on_diagonal = np.diag([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="jump 0 "):
        RhsSpec(H, "gkls", jumps=((two_entries, 1.0),)).compiled
    with pytest.raises(ValueError, match="jump 1 "):
        RhsSpec(H, "gkls", jumps=((unit, 1.0), (on_diagonal, 1.0))).compiled
    with pytest.raises(ValueError, match="jump 0 "):
        RhsSpec(H, "gkls", jumps=((np.zeros((4, 4)), 1.0),)).compiled
    with pytest.raises(ValueError, match="own Hamiltonian"):
        RhsSpec(H + 0.1 * two_entries + 0.1 * two_entries.T, "eben", system=lad).compiled
    with pytest.raises(ValueError, match="own Hamiltonian"):
        RhsSpec(SIGMA_X / 2, "ebe2", system=sys2).compiled


@pytest.mark.parametrize("make_spec", [sigma_x_on_sigma_z, oscillator_a])
def test_propagate_and_fixed_point_reject_specs_without_a_split(make_spec):
    spec = make_spec()
    rho0 = np.eye(spec.dim, dtype=complex) / spec.dim
    for method in ("expm", "rk4"):
        with pytest.raises(ValueError, match="jump 0 .* not a single off-diagonal"):
            propagate(spec, rho0, 1.0, 0.1, method)
    with pytest.raises(ValueError, match="jump 0 .* not a single off-diagonal"):
        fixed_point(spec)


# ------------------------------------- system specs compile from transitions


@pytest.mark.parametrize("rule", ["harmonic", "constant"])
@pytest.mark.parametrize("T", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("include_unitary, gamma_pd", [(True, -0.1), (False, 0.0)])
def test_ladder_gkls_twin_compiles_to_the_bits_of_its_jump_list(rule, T, include_unitary,
                                                                gamma_pd):
    for N in range(2, 34):
        lad = build_oscillator(N, 1.0, rule, BathModel(1.0, T))
        gen = RhsSpec.for_system(lad, "gkls", include_unitary, gamma_pd).compiled
        scanned = RhsSpec(lad.hamiltonian, "gkls", jumps=ladder_jump_list(lad),
                          include_unitary=include_unitary, gamma_pd=gamma_pd).compiled
        np.testing.assert_array_equal(gen.W, scanned.W)
        np.testing.assert_array_equal(gen.C, scanned.C)


def test_two_level_gkls_twin_compiles_to_the_bits_of_ebe2():
    rng = np.random.default_rng(19)
    for _ in range(300):
        v = rng.standard_normal(3)
        gp, gm = rng.uniform(0.05, 2.0, 2)
        sys2 = TwoLevelSystem(float(rng.uniform(0.2, 5.0)), tuple(v / np.linalg.norm(v)),
                              float(gp), float(gm))
        gkls = RhsSpec.for_system(sys2, "gkls", True, -0.2).compiled
        ebe2 = RhsSpec.for_system(sys2, "ebe2", True, -0.2).compiled
        for field in ("E", "W", "C", "V"):
            np.testing.assert_array_equal(getattr(gkls, field), getattr(ebe2, field))


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
    for spec in (RhsSpec.for_system(lad, "gkls", True, -0.1),
                 RhsSpec.for_system(tilted, "gkls", True, -0.1)):
        rho0 = np.full((spec.dim, spec.dim), 0.5 / spec.dim, dtype=complex)
        rho0[np.diag_indices(spec.dim)] = 1.0 / spec.dim
        assert fixed_point(spec).residual <= 1e-12
        for method in ("expm", "rk4"):
            propagate(spec, rho0, 0.5, 0.05, method)
        with pytest.raises(Built):
            master_rhs(rho0, spec)


def test_system_specs_are_checked_at_construction():
    lad = LadderSystem(2, (-0.5, 0.5), (TransitionSpec(0, 1, 0.3, 0.7, 1.0),))
    sys2 = TwoLevelSystem(1.0, (0.0, 0.0, -1.0), 0.3, 0.7)
    with pytest.raises(ValueError, match="no explicit jump list"):
        RhsSpec(lad.hamiltonian, "gkls", system=lad, jumps=ladder_jump_list(lad))
    with pytest.raises(ValueError, match="own Hamiltonian"):
        RhsSpec(SIGMA_X / 2, "gkls", system=sys2)


def test_split_rate_matrix_conserves_trace_and_coherences_are_hermitian():
    lad = build_oscillator(6, 1.3, "harmonic", BathModel(1.0, 0.8))
    gen = RhsSpec.for_system(lad, gamma_pd=-0.1).compiled
    np.testing.assert_allclose(gen.W.sum(axis=0), 0.0, atol=1e-15)
    assert np.all(gen.W - np.diag(np.diag(gen.W)) >= 0.0)
    np.testing.assert_array_equal(gen.C, gen.C.conj().T)
    np.testing.assert_array_equal(np.diag(gen.C), 0.0)


# ------------------------------------------------------------ propagation


def test_split_rk4_matches_stagewise_oracle_on_criterion_6_ladder():
    lad = build_oscillator(14, 10.0, "harmonic", BathModel(1.0, 1.0))
    spec = RhsSpec.for_system(lad)
    rho = gibbs_state(lad.hamiltonian, 2.0)
    traj = propagate(spec, rho, 1.0, 1e-3, "rk4", 100)
    ref = [np.diag(rho).real]
    for k in range(1, 1001):
        rho = step_rk4(spec, rho, 1e-3)
        if k % 100 == 0:
            ref.append(np.diag(rho).real)
    ref = np.array(ref)
    pops = traj.populations()
    assert ref.min() < 1e-33  # the relaxing tail is resolved, not flushed
    rel = np.abs(pops - ref) / ref
    assert rel.max() <= 1e-10, f"worst relative deviation {rel.max():.3e}"


@pytest.mark.parametrize("kind", ["eben", "gkls"])
@pytest.mark.parametrize("N, gamma_pd, include_unitary",
                         [(4, 0.0, True), (9, -0.2, False), (16, -0.05, True)])
def test_split_expm_matches_dense_trajectory(kind, N, gamma_pd, include_unitary):
    lad = build_oscillator(N, 0.7, "harmonic", BathModel(1.0, 1.2))
    spec = RhsSpec.for_system(lad, kind, include_unitary, gamma_pd)
    rng = np.random.default_rng(N)
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    rho0 = A @ A.conj().T
    rho0 /= np.trace(rho0)
    kw = dict(t_final=1.0, dt=0.05, method="expm", record_every=7)  # gaps 7, 7, 6
    traj = propagate(spec, rho0, **kw)
    np.testing.assert_allclose(traj.times, np.array([0, 7, 14, 20]) * 0.05)
    S = build_superoperator(spec)
    dense = [(scipy.linalg.expm(S * t) @ vectorize(rho0)).reshape(N, N, order="F")
             for t in traj.times]
    worst = max(np.abs(a - b).max() for a, b in zip(traj.states, dense))
    assert worst <= 1e-12, f"split vs dense expm {worst:.3e}"
    # the warnings the dense states call for, and no others
    leak = bool(max(s[lad.top_level, lad.top_level].real for s in dense) > TOP_POP_WARN)
    negative = bool(min(np.linalg.eigvalsh(herm_part(s)).min() for s in dense) < MIN_EIG_WARN)
    assert [w.split(":")[0] for w in traj.warnings] == \
        ["positivity violated"] * negative + ["truncation leak"] * leak


def test_split_amplifying_modes_warn_and_refuse_a_fixed_point_at_any_size():
    # N=20 is beyond the dim <= 16 spectrum check of build_superoperator
    lad = build_oscillator(20, 1.0, "harmonic", BathModel(1.0, 1.0))
    spec = RhsSpec.for_system(lad, gamma_pd=+0.5)
    rho0 = gibbs_state(lad.hamiltonian, 1.0)
    with pytest.warns(UserWarning, match="amplifying modes"):
        propagate(spec, rho0, 1.0, 0.1, "expm")
    with pytest.raises(FixedPointError, match="amplifying modes"):
        fixed_point(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        propagate(RhsSpec.for_system(lad, gamma_pd=-0.5), rho0, 1.0, 0.1, "expm")


def test_split_rk4_outside_stability_region_raises_before_stepping(monkeypatch):
    lad = build_oscillator(20, 1.0, "harmonic", BathModel(1.0, 1.0))
    spec = RhsSpec.for_system(lad)
    rho0 = gibbs_state(lad.hamiltonian, 2.0)
    calls = []
    monkeypatch.setattr(sys.modules["ebloch.dissipators"], "master_rhs",
                        lambda rho, s: calls.append(1) or master_rhs(rho, s))
    with pytest.raises(PropagationError, match="unstable") as info:
        propagate(spec, rho0, 10.0, 0.2, "rk4")
    assert not calls
    growth = float(str(info.value).split("| = ")[1].split()[0])
    assert 30.0 < growth < 40.0
    # a step inside the region runs
    propagate(spec, rho0, 1.0, 0.01, "rk4", 10)


def test_split_rk4_gap_maps_keep_relative_accuracy_over_the_criterion_6_quench():
    lad = build_oscillator(14, 10.0, "harmonic", BathModel(1.0, 1.0))
    spec = RhsSpec.for_system(lad)
    rho = gibbs_state(lad.hamiltonian, 2.0)
    dt, n_steps, every = 1e-3, 30_000, 25
    step = _rk4_matrix(dt * spec.compiled.W)
    # the accuracy claim rests on this: powers and products of a non-negative
    # matrix with a positive vector involve no cancellation
    assert np.all(step >= 0.0)
    traj = propagate(spec, rho, n_steps * dt, dt, "rk4", every)
    p = np.diag(rho).real
    ref = [p]
    for k in range(1, n_steps + 1):
        p = step @ p
        if k % every == 0:
            ref.append(p)
    ref = np.array(ref)
    assert ref.min() < 1e-50  # the relaxed tail is resolved, not flushed
    rel = np.abs(traj.populations() - ref) / ref
    assert rel.max() <= 1e-10, f"worst relative deviation {rel.max():.3e}"


def test_generator_rhs_norm_matches_master_rhs():
    rng = np.random.default_rng(11)
    lad = build_oscillator(7, 1.3, "harmonic", BathModel(1.0, 0.9))
    tilted = TwoLevelSystem(1.0, (0.6, 0.0, 0.8), 0.3, 0.7)
    specs = [RhsSpec.for_system(lad, "eben", True, -0.1),
             RhsSpec.for_system(lad, "gkls", False, 0.0),
             RhsSpec.for_system(tilted, "ebe2", True, -0.2),
             RhsSpec.for_system(tilted, "gkls", False, 0.0)]
    assert [s.compiled.V is None for s in specs] == [True, True, False, False]
    for spec in specs:
        gen = spec.compiled
        for _ in range(5):
            A = rng.standard_normal((spec.dim,) * 2) + 1j * rng.standard_normal((spec.dim,) * 2)
            rho = A + A.conj().T
            ref = np.linalg.norm(master_rhs(rho, spec))
            assert abs(np.linalg.norm(split_apply(gen, gen.rotate_in(rho))) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("method", ["rk4", "expm"])
def test_split_propagate_evaluates_no_master_rhs(monkeypatch, method):
    lad = build_oscillator(8, 1.0, "harmonic", BathModel(1.0, 1.0))
    spec = RhsSpec.for_system(lad, gamma_pd=-0.1)
    calls = []
    monkeypatch.setattr(sys.modules["ebloch.dissipators"], "master_rhs",
                        lambda rho, s: calls.append(1) or master_rhs(rho, s))
    traj = propagate(spec, gibbs_state(lad.hamiltonian, 2.0), 1.0, 0.01, method, 10)
    assert len(traj.times) == 11
    assert not calls


def test_split_growth_check_aborts_amplifying_coherences():
    lad = build_oscillator(4, 1.0, "harmonic", BathModel(1.0, 1.0))
    spec = RhsSpec.for_system(lad, gamma_pd=+50.0)
    assert spec.compiled is not None
    psi = np.full(4, 0.5, dtype=complex)
    with pytest.raises(PropagationError, match="instability"):
        with pytest.warns(UserWarning, match="amplifying modes"):
            propagate(spec, np.outer(psi, psi.conj()), 10.0, 1e-3, "expm", 100)


# ----------------------------------------------------------- fixed points


def probed_fixed_point(spec):
    """(multiplicity, spectral gap, state) from eig of the probed
    superoperator: the state is the trace-normalized Hermitian part of the
    near-null eigenvector with the largest trace."""
    ev, vecs = np.linalg.eig(build_superoperator(spec))
    absvals = np.abs(ev)
    decaying = ev.real < -1e-10
    gap = float(-ev[decaying].real.max()) if decaying.any() else math.nan
    near = np.flatnonzero(absvals <= max(1e-10, absvals.min()))
    modes = [vecs[:, k].reshape(spec.dim, spec.dim, order="F") for k in near]
    rho = herm_part(max(modes, key=lambda m: abs(m.trace())))
    return int(np.sum(absvals <= 1e-10)), gap, rho / rho.trace().real


def _compare_fixed_points(spec, compare_state):
    split = fixed_point(spec)
    multiplicity, gap, rho = probed_fixed_point(spec)
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
    kind, include_unitary, gamma_pd = options
    spec = RhsSpec.for_system(lad, kind, include_unitary, min(gamma_pd, 0.0))
    _compare_fixed_points(spec, compare_state=True)


@SETTINGS
@given(transition_graphs(connected=False), spec_options)
def test_split_fixed_point_matches_probed_on_disconnected_graphs(lad, options):
    # the stationary manifold has several directions, so the picked state
    # depends on the eigenvector basis; spectrum-derived numbers must agree
    kind, include_unitary, gamma_pd = options
    spec = RhsSpec.for_system(lad, kind, include_unitary, min(gamma_pd, 0.0))
    _compare_fixed_points(spec, compare_state=False)
    assert fixed_point(spec).multiplicity >= 2


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
    rung = lad.transitions[0]
    E, gamma0, f = rung.E_t, rung.gamma_sum, rung.gamma_p / rung.gamma_sum
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
