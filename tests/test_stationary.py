"""Tests for Gibbs states and fixed-point extraction."""

import math

import numpy as np
import pytest

from ebloch.dissipators import RhsSpec, SplitGenerator
from ebloch.linalg import hermitian_eig, trace_distance
from ebloch.propagate import propagate
from ebloch.stationary import (
    _gibbs_weights,
    effective_temperature,
    fixed_point,
    gibbs_state,
    two_level_stationary_analytic,
)
from ebloch.systems import (
    BathModel,
    LadderSystem,
    TwoLevelSystem,
    build_oscillator,
    build_two_level_hamiltonian,
    rates_from_bath,
)
from oracles import commutator, is_psd, split_apply


def thermal_two_level(E, T, gamma=1.0, eps=(0.6, 0.0, 0.8)):
    gp, gm = rates_from_bath(BathModel(gamma, T), E)
    return TwoLevelSystem(E, eps, gp, gm)


# ---------------------------------------------------------------- gibbs_state


def test_gibbs_infinite_temperature_is_maximally_mixed():
    H = np.diag([0.0, 1.0, 2.0])
    np.testing.assert_allclose(gibbs_state(H, math.inf), np.eye(3) / 3, atol=1e-15)
    np.testing.assert_allclose(gibbs_state(H, 1e15), np.eye(3) / 3, atol=1e-12)


def test_gibbs_two_level_populations():
    H = build_two_level_hamiltonian(1.0, (0, 0, 1))
    rho = gibbs_state(H, 1.0)
    # eigenvalues are +-1/2; ground population 1/(1+e^-1), excited e^-1/(1+e^-1)
    p_excited = np.exp(-1.0) / (1 + np.exp(-1.0))
    np.testing.assert_allclose(np.diag(rho).real, [p_excited, 1 - p_excited], rtol=1e-14)
    assert abs(np.trace(rho) - 1.0) <= 1e-14
    assert is_psd(rho)


def test_gibbs_ladder_geometric_populations():
    lad = build_oscillator(5, 1.3, "constant", BathModel(1.0, 0.9))
    rho = gibbs_state(lad.hamiltonian, 0.9)
    p = np.diag(rho).real
    np.testing.assert_allclose(p[1:] / p[:-1], np.exp(-1.3 / 0.9), rtol=1e-12)


def test_gibbs_commutes_with_hamiltonian():
    rng = np.random.default_rng(50)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = 0.5 * (A + A.conj().T)
    rho = gibbs_state(H, 0.7)
    assert np.linalg.norm(commutator(H, rho)) <= 1e-12


def test_gibbs_state_of_a_diagonal_h_is_the_eigensolve_route_without_one(monkeypatch):
    def eigh_route(H, T):
        w, V = hermitian_eig(H)
        return (V * _gibbs_weights(w, T)) @ V.conj().T

    unsorted = LadderSystem((0.0, 2.3, 0.7, 1.9), [(0, 2, 0.1, 0.4), (2, 3, 0.2, 0.5),
                                                   (3, 1, 0.3, 0.6)])
    hams = [build_oscillator(N, E, rule, BathModel(1.0, 1.0)).hamiltonian
            for N in (2, 3, 7, 16, 32) for E in (0.3, 2.5) for rule in ("harmonic", "constant")]
    hams += [unsorted.hamiltonian, build_two_level_hamiltonian(1.0, (0, 0, 1))]
    cases = [(H, T) for H in hams for T in (0.2, 1.0, 5.0, math.inf)]
    refs = [eigh_route(H, T) for H, T in cases]

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigensolve of a diagonal H")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for (H, T), ref in zip(cases, refs):
        rho = gibbs_state(H, T)
        assert rho.dtype == complex
        np.testing.assert_array_equal(rho, ref)


def test_gibbs_rejects_nonpositive_temperature():
    with pytest.raises(ValueError, match="positive temperature"):
        gibbs_state(np.diag([0.0, 1.0]), 0.0)


# ------------------------------------------------------------- analytic state


def test_analytic_balanced_rates_give_maximally_mixed():
    sys2 = TwoLevelSystem(1.0, (0, 0, 1), 0.7, 0.7)
    np.testing.assert_allclose(two_level_stationary_analytic(sys2), np.eye(2) / 2, atol=1e-15)


def test_analytic_pure_inverted_bath_gives_excited_projector():
    # gamma_m = 0: stationary state is 1/2 + H/E, the excited projector
    sys2 = TwoLevelSystem(2.0, (0.6, 0, 0.8), 1.3, 0.0)
    rho = two_level_stationary_analytic(sys2)
    w, V = np.linalg.eigh(sys2.hamiltonian)
    np.testing.assert_allclose(rho, np.outer(V[:, 1], V[:, 1].conj()), atol=1e-14)


def test_analytic_matches_gibbs_under_detailed_balance():
    sys2 = thermal_two_level(E=1.0, T=1.0)
    rho = two_level_stationary_analytic(sys2)
    assert trace_distance(rho, gibbs_state(sys2.hamiltonian, 1.0)) <= 1e-14


def test_analytic_rejects_zero_rates():
    with pytest.raises(ValueError, match="positive"):
        two_level_stationary_analytic(TwoLevelSystem(1.0, (0, 0, 1)))


# ---------------------------------------------------------------- fixed_point


def test_fixed_point_matches_analytic_and_gibbs():
    rng = np.random.default_rng(51)
    for _ in range(25):
        E = float(rng.uniform(0.3, 3.0))
        T = float(rng.uniform(0.3, 4.0))
        v = rng.standard_normal(3)
        sys2 = thermal_two_level(E, T, gamma=float(rng.uniform(0.3, 2.0)),
                                 eps=tuple(v / np.linalg.norm(v)))
        report = fixed_point(RhsSpec.for_system(sys2))
        assert trace_distance(report.rho_stationary,
                              two_level_stationary_analytic(sys2)) <= 1e-10
        assert report.gibbs_distance <= 1e-10
        assert report.residual <= 1e-10
        assert report.multiplicity == 1
        assert report.spectral_gap > 0


def test_fixed_point_nonthermal_rates_match_closed_form_only():
    sys2 = TwoLevelSystem(1.0, (0, 0.6, 0.8), 1.4, 0.3)  # inverted
    report = fixed_point(RhsSpec.for_system(sys2))
    assert trace_distance(report.rho_stationary,
                          two_level_stationary_analytic(sys2)) <= 1e-10
    assert math.isnan(report.gibbs_distance)


def test_fixed_point_oscillator_gibbs_for_any_coupling_rule():
    for rule in ("harmonic", "constant", [1.0 + i * i for i in range(7)]):
        lad = build_oscillator(8, 1.0, rule, BathModel(1.0, 1.0))
        report = fixed_point(RhsSpec.for_system(lad))
        assert report.gibbs_distance <= 1e-8
        assert report.residual <= 1e-10
        p = np.diag(report.rho_stationary).real
        np.testing.assert_allclose(p[1:] / p[:-1], np.exp(-1.0), atol=1e-8)


def test_fixed_point_unequal_spacing_ladder_is_still_gibbs():
    T = 1.3
    energies = (0.0, 1.0, 2.7)
    transitions = []
    for i in range(2):
        E_t = energies[i + 1] - energies[i]
        gp, gm = rates_from_bath(BathModel(0.8 + 0.3 * i, T), E_t)
        transitions.append((i, i + 1, gp, gm))
    lad = LadderSystem(energies, transitions)
    report = fixed_point(RhsSpec.for_system(lad))
    assert report.gibbs_distance <= 1e-10


def test_fixed_point_agrees_with_long_time_propagation():
    sys2 = thermal_two_level(E=1.0, T=0.8)
    spec = RhsSpec.for_system(sys2)
    report = fixed_point(spec)
    t_final = 20.0 / report.spectral_gap
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    traj = propagate(spec, rho0, t_final, t_final / 2000, 2000)
    assert trace_distance(traj.states[-1], report.rho_stationary) <= 1e-6


def test_fixed_point_on_cyclic_and_branching_graphs():
    # arbitrary connected transition graphs are allowed; with every rate
    # drawn from one bath the stationary state is still Gibbs, even around
    # a cycle, while frustrated cycles (mixed temperatures) get a unique
    # non-Gibbs steady state and no gibbs_distance
    T = 1.1
    energies = (0.0, 0.8, 2.0)

    def thermal(i, j, g, Tt):
        E_t = energies[j] - energies[i]
        gp, gm = rates_from_bath(BathModel(g, Tt), E_t)
        return (i, j, gp, gm)

    triangle = LadderSystem(energies, (
        thermal(0, 1, 1.0, T), thermal(1, 2, 0.6, T), thermal(0, 2, 1.7, T)))
    report = fixed_point(RhsSpec.for_system(triangle))
    assert report.gibbs_distance <= 1e-10
    assert report.multiplicity == 1

    vee = LadderSystem(energies, (thermal(0, 1, 1.0, T), thermal(0, 2, 0.5, T)))
    assert fixed_point(RhsSpec.for_system(vee)).gibbs_distance <= 1e-10

    frustrated = LadderSystem(energies, (
        thermal(0, 1, 1.0, 0.5), thermal(1, 2, 0.6, 2.0), thermal(0, 2, 1.7, 1.0)))
    report = fixed_point(RhsSpec.for_system(frustrated))
    assert math.isnan(report.gibbs_distance)
    assert report.residual <= 1e-10
    assert report.multiplicity == 1


def test_fixed_point_flags_multiplicity_on_disconnected_graph():
    # two disjoint two-level islands: a two-dimensional stationary manifold
    energies = (0.0, 1.0, 2.0, 3.0)
    lad = LadderSystem(energies, [(0, 1, 0.3, 0.7), (2, 3, 0.2, 0.8)])
    report = fixed_point(RhsSpec.for_system(lad))
    assert report.multiplicity >= 2
    assert report.residual <= 1e-10


def test_fixed_point_error_when_no_stationary_state():
    # pure unitary spec has many zero modes; an amplifying gamma_pd with no
    # dissipator shifts every coherence eigenvalue away from zero except the
    # diagonal ones -- use a rotated closed system plus tiny t to build a spec
    # whose S has no near-zero eigenvalue: simplest is a nonzero constant drive,
    # which this package does not model, so instead check the guard directly
    # on a spec whose only near-zero candidate is removed by dephasing.
    H = build_two_level_hamiltonian(1.0, (0, 0, 1))
    spec = RhsSpec(H, jumps=(), include_unitary=True, gamma_pd=-0.5)
    report = fixed_point(spec)  # diagonal sector still stationary
    assert report.multiplicity >= 2



def _fixed_point_specs():
    """(spec, bath T) pairs: harmonic and constant ladders of 2 to 64 levels
    and tilted two-level systems."""
    for N in (2, 3, 4, 5, 8, 13, 21, 34, 48, 64):
        for rule in ("harmonic", "constant"):
            for T in (0.4, 1.5):
                yield RhsSpec.for_system(build_oscillator(N, 1.0, rule, BathModel(0.7, T))), T
    for E, T in ((0.5, 0.3), (1.0, 1.0), (2.5, 4.0)):
        for eps in ((0.6, 0.0, 0.8), (0.48, 0.36, 0.8)):
            yield RhsSpec.for_system(thermal_two_level(E, T, gamma=0.9, eps=eps)), T


def test_fixed_point_measures_in_the_eigenbasis_match_the_dense_formulas():
    # residual ||W p|| and gibbs_distance (1/2) sum |p - g| against the dense
    # generator applied to the rotated-in state and the trace distance of
    # the rotated-out state from the dense Gibbs state, at T and 2T
    count = 0
    for spec, T in _fixed_point_specs():
        gen = spec.compiled
        for bath_T in (T, 2 * T):
            report = fixed_point(spec, bath_T)
            rho = report.rho_stationary
            residual = float(np.linalg.norm(split_apply(gen, gen.rotate_in(rho))))
            distance = trace_distance(rho, gibbs_state(spec.hamiltonian, bath_T))
            assert abs(report.residual - residual) <= 1e-14, (spec.dim, bath_T)
            assert abs(report.gibbs_distance - distance) <= 1e-14, (spec.dim, bath_T)
            count += 1
    assert count == 92


def test_fixed_point_and_a_gibbs_start_take_no_dense_eigensolve(monkeypatch):
    # on a ladder every measure of the fixed point and every check of a run
    # from a state diagonal in the eigenbasis reads the diagonal alone
    lad = build_oscillator(64, 1.0, "harmonic", BathModel(1.0, 1.0))
    spec = RhsSpec.for_system(lad)
    rho0 = gibbs_state(lad.hamiltonian, 2.0)

    def dense_eigensolve(*args, **kwargs):
        raise AssertionError("dense eigensolve")

    monkeypatch.setattr(np.linalg, "eigh", dense_eigensolve)
    monkeypatch.setattr(np.linalg, "eigvalsh", dense_eigensolve)
    report = fixed_point(spec)
    assert report.gibbs_distance <= 1e-12
    traj = propagate(spec, rho0, 1.0, 0.1, 1)
    assert traj.min_eig.min() > 0.0


def test_fixed_point_rotates_its_state_out_only_when_read(monkeypatch):
    # the report keeps p in the eigenbasis: fixed_point makes no rotate_out
    # call, and each read of rho_stationary makes one and returns the
    # rotated-out diag(p) bit for bit
    rotate_out = SplitGenerator.rotate_out
    calls = []

    def counted(self, s):
        calls.append(s)
        return rotate_out(self, s)

    monkeypatch.setattr(SplitGenerator, "rotate_out", counted)
    ladder = RhsSpec.for_system(build_oscillator(8, 1.0, "harmonic", BathModel(1.0, 1.0)))
    tilted = RhsSpec.for_system(thermal_two_level(1.0, 1.0, eps=(0.48, 0.36, 0.8)))
    assert ladder.compiled.V is None and tilted.compiled.V is not None
    for spec in (ladder, tilted):
        report = fixed_point(spec)
        assert calls == []
        eager = rotate_out(spec.compiled, np.diag(report.p).astype(complex))
        for reads in (1, 2):
            rho = report.rho_stationary
            assert len(calls) == reads
            assert rho.dtype == eager.dtype and rho.shape == eager.shape
            assert rho.tobytes() == eager.tobytes()
        calls.clear()


# ------------------------------------------------------- effective_temperature


def test_effective_temperature_two_level():
    sys2 = thermal_two_level(E=1.0, T=0.7)
    assert effective_temperature(RhsSpec.for_system(sys2)) == pytest.approx(0.7, rel=1e-12)
    balanced = TwoLevelSystem(1.0, (0, 0, 1), 0.5, 0.5)
    assert effective_temperature(RhsSpec.for_system(balanced)) == math.inf
    inverted = TwoLevelSystem(1.0, (0, 0, 1), 0.9, 0.1)
    assert effective_temperature(RhsSpec.for_system(inverted)) is None


def test_effective_temperature_ladder_consistency():
    lad = build_oscillator(5, 1.0, "harmonic", BathModel(1.0, 1.2))
    assert effective_temperature(RhsSpec.for_system(lad)) == pytest.approx(1.2, rel=1e-9)
    mixed = LadderSystem(
        (0.0, 1.0, 2.0),
        [
            (0, 1, *rates_from_bath(BathModel(1.0, 1.0), 1.0)),
            (1, 2, *rates_from_bath(BathModel(1.0, 2.0), 1.0)),
        ],
    )
    assert effective_temperature(RhsSpec.for_system(mixed)) is None
