"""Tests for propagation, the superoperator, and diagnostics."""

import math
import re
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

from ebloch.dissipators import RhsSpec
from ebloch.linalg import herm_part, trace_distance
from ebloch.propagate import (
    PropagationError,
    _assemble,
    _diagnose,
    expm,
    propagate,
)
from ebloch.stationary import FixedPointError, fixed_point, gibbs_state
from ebloch.systems import (
    BathModel,
    LadderSystem,
    TwoLevelSystem,
    build_oscillator,
    build_two_level_hamiltonian,
    rates_from_bath,
)
from oracles import build_superoperator, dense_rates, master_rhs, vectorize


def thermal_two_level(E=1.0, T=1.0, gamma=1.0, eps=(0.48, 0.36, 0.8)):
    gp, gm = rates_from_bath(BathModel(gamma, T), E)
    return TwoLevelSystem(E, eps, gp, gm)


COHERENT_RHO0 = np.array([[0.7, 0.25 + 0.1j], [0.25 - 0.1j, 0.3]], dtype=complex)

# propagate's one path is the exact flow: expm(W t) on the populations and
# exp(C_ab t) per coherence.  Tests that once ran it beside a fixed-step
# integrator keep "expm" in their case id.
EXACT_FLOW = pytest.mark.parametrize((), [pytest.param(id="expm")])


# ------------------------------------------------------------------------ expm


def _squarings(A):
    """Squarings that [13/13] Pade scaling and squaring takes for A."""
    norm = np.linalg.norm(A, 1)
    return max(0, math.ceil(math.log2(norm / 5.371920351148152))) if norm else 0


def _rel_error(got, ref):
    return np.linalg.norm(got - ref, 1) / np.linalg.norm(ref, 1)


def test_expm_matches_scipy_on_the_exact_ladders_and_two_level_rates():
    mats = []
    for N in (32, 24):
        for T in (0.7, 1.5):
            lad = build_oscillator(N, 1.0, "harmonic", BathModel(1.0, T))
            mats += [RhsSpec.for_system(lad).compiled.W * t for t in (0.02, 0.05)]
    W = RhsSpec.for_system(thermal_two_level(eps=(0.6, 0.0, 0.8))).compiled.W
    mats += [W * t for t in (1e-3, 0.1, 1.0, 10.0, 100.0)]
    for A in mats:
        assert _rel_error(expm(A), scipy.linalg.expm(A)) <= 1e-14


def test_expm_matches_scipy_on_random_rate_matrices():
    """The bound covers both routines' own errors: SciPy's reaches 1.1e-14
    (against a 50-digit reference) at 1-norms just above theta_13, and each
    squaring can double either one, since the stationary mode of a rate
    matrix has eigenvalue 1.  So it is 2e-14 up to three squarings and
    doubles with each further one, to 6.4e-13 at eight."""
    rng = np.random.default_rng(16)
    seen = set()
    for n in range(2, 9):
        for norm in np.geomspace(1e-8, 1e3, 45):
            W = rng.random((n, n))
            np.fill_diagonal(W, 0.0)
            W -= np.diag(W.sum(axis=0))
            A = W * (norm / np.linalg.norm(W, 1))
            s = _squarings(A)
            seen.add(s)
            assert _rel_error(expm(A), scipy.linalg.expm(A)) <= 2e-14 * max(1.0, 2.0 ** (s - 3))
    assert seen == set(range(9))


def test_expm_of_zero_is_the_identity_exactly():
    for n in (1, 2, 5, 32):
        np.testing.assert_array_equal(expm(np.zeros((n, n))), np.eye(n))


def test_expm_of_a_non_finite_matrix_is_nan_and_the_run_stops_at_its_check():
    assert np.isnan(expm(np.array([[-np.inf, 1.0], [0.0, 0.0]]))).all()
    assert np.isnan(expm(np.array([[np.nan, 0.0], [0.0, 0.0]]))).all()
    # two rates of 1e308 out of the middle level: its out-rate is inf, so no W
    lad = LadderSystem((0.0, 1.0, 2.0), [(0, 1, 1e308, 1e308), (1, 2, 1e308, 1e308)])
    with pytest.raises(ValueError, match="^level 1 has a non-finite out-rate inf$"):
        RhsSpec.for_system(lad).compiled
    # rates of 1e300 give a finite W, but W times a gap of 1e10 overflows: the
    # map is NaN, and the check of the records stops the run
    lad = LadderSystem((0.0, 1.0, 2.0), [(0, 1, 1e300, 1e300), (1, 2, 1e300, 1e300)])
    spec = RhsSpec.for_system(lad)
    assert np.isfinite(spec.compiled.W).all()
    with pytest.raises(PropagationError, match=r"^NaN/Inf encountered before t=1e\+10$"):
        propagate(spec, np.diag([1.0, 0.0, 0.0]), 1e10, 1e10)


def test_each_distinct_record_gap_builds_one_expm_map(monkeypatch):
    # the exact workload's grid: gaps 5, 5, 2 steps, so two maps
    spec = RhsSpec.for_system(build_oscillator(6, 1.0, "harmonic", BathModel(1.0, 1.0)))
    built = []
    real = sys.modules["ebloch.propagate"].expm
    monkeypatch.setattr(sys.modules["ebloch.propagate"], "expm",
                        lambda A: built.append(A) or real(A))
    traj = propagate(spec, gibbs_state(spec.hamiltonian, 2.0), 0.12, 0.01, 5)
    assert len(traj.times) == 4
    W = spec.compiled.W
    assert len(built) == 2
    np.testing.assert_array_equal(built[0], W * 0.05)
    np.testing.assert_array_equal(built[1], W * 0.02)


# ------------------------------------------------------------- superoperator


def test_superoperator_consistent_with_master_rhs():
    rng = np.random.default_rng(40)
    lad = build_oscillator(4, 1.0, "harmonic", BathModel(1.0, 1.0))
    for spec in (RhsSpec.for_system(thermal_two_level()), RhsSpec.for_system(lad)):
        for jumps in (False, True):
            S = build_superoperator(spec, jumps)
            for _ in range(10):
                A = (rng.standard_normal((spec.dim,) * 2)
                     + 1j * rng.standard_normal((spec.dim,) * 2))
                lhs = S @ vectorize(A)
                rhs = vectorize(master_rhs(A, spec, jumps))
                assert np.abs(lhs - rhs).max() <= 1e-12 * max(1, np.abs(rhs).max())


def test_superoperator_unitary_only_bohr_frequencies():
    # diagonal H: S is diagonal in the matrix-unit basis, entries -i(E_a - E_b)
    energies = np.array([0.0, 1.0, 2.7])
    spec = RhsSpec(np.diag(energies))
    S = build_superoperator(spec)
    expected = np.zeros((9, 9), dtype=complex)
    for b in range(3):
        for a in range(3):
            expected[a + 3 * b, a + 3 * b] = -1j * (energies[a] - energies[b])
    np.testing.assert_allclose(S, expected, atol=1e-14)


def test_superoperator_spectrum_ebe2():
    spec = RhsSpec.for_system(thermal_two_level())
    ev = np.linalg.eigvals(build_superoperator(spec))
    assert np.sum(np.abs(ev) <= 1e-10) == 1
    nonzero = ev[np.abs(ev) > 1e-10]
    assert nonzero.real.max() < 0


def test_superoperator_annihilates_gibbs():
    sys2 = thermal_two_level(E=1.2, T=0.8)
    S = build_superoperator(RhsSpec.for_system(sys2))
    v = S @ vectorize(gibbs_state(sys2.hamiltonian, 0.8))
    assert np.abs(v).max() <= 1e-10


def test_superoperator_dimension_guard():
    lad = build_oscillator(65, 1.0, "constant", BathModel(1.0, 1.0))
    with pytest.raises(ValueError, match="guard"):
        build_superoperator(RhsSpec.for_system(lad))


def test_dense_max_growth_is_the_superoperator_spectral_abscissa():
    # build_superoperator inspects no spectrum; the generator's max_growth is
    # the one amplifying check, read off the coherence rates
    spec = RhsSpec.for_system(thermal_two_level(), gamma_pd=+2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        S = build_superoperator(spec)
    max_re = float(np.linalg.eigvals(S).real.max())
    assert max_re > 1.0
    assert spec.compiled.max_growth == pytest.approx(max_re, rel=1e-12)


# ----------------------------------------------------------------- propagate


def test_propagate_gibbs_initial_state_is_constant():
    sys2 = thermal_two_level(E=1.0, T=1.0)
    rho_g = gibbs_state(sys2.hamiltonian, 1.0)
    traj = propagate(RhsSpec.for_system(sys2), rho_g, 5.0, 0.01, 10)
    for state in traj.states:
        assert np.abs(state - rho_g).max() <= 1e-9


def test_propagate_closed_system_conserves_purity():
    H = build_two_level_hamiltonian(1.0, (0.6, 0, 0.8))
    traj = propagate(RhsSpec(H), COHERENT_RHO0, 5.0, 0.01, 20)
    purities = [np.trace(s @ s).real for s in traj.states]
    assert max(purities) - min(purities) <= 1e-10


def test_propagate_trace_drift_bounds():
    sys2 = thermal_two_level()
    spec = RhsSpec.for_system(sys2)
    traj = propagate(spec, COHERENT_RHO0, 10.0, 1e-2, 100)
    assert traj.trace_dev.max() <= 1e-12


def test_propagate_monotone_approach_to_gibbs():
    sys2 = thermal_two_level(E=1.0, T=1.0)
    rho_g = gibbs_state(sys2.hamiltonian, 1.0)
    traj = propagate(RhsSpec.for_system(sys2), COHERENT_RHO0, 8.0, 0.01, 20)
    dists = [trace_distance(s, rho_g) for s in traj.states]
    for a, b in zip(dists, dists[1:]):
        assert b <= a + 1e-12


def test_propagate_records_final_time_and_diagnostics():
    lad = build_oscillator(5, 1.0, "harmonic", BathModel(1.0, 1.0))
    rho0 = gibbs_state(lad.hamiltonian, 2.0)
    traj = propagate(RhsSpec.for_system(lad), rho0, 1.05, 0.1, 4)
    # steps: 10 -> records at 0, 4, 8, 10
    np.testing.assert_allclose(traj.times, [0.0, 0.4, 0.8, 1.0], atol=1e-12)
    assert len(traj.states) == 4
    assert traj.top_pop.shape == (4,)
    assert np.isfinite(traj.min_eig).all()


def test_propagate_validates_initial_state():
    spec = RhsSpec.for_system(thermal_two_level())
    with pytest.raises(ValueError, match="trace"):
        propagate(spec, np.eye(2), 1.0, 0.1)
    with pytest.raises(ValueError, match="Hermitian"):
        propagate(spec, np.array([[1.0, 0.5], [0.0, 0.0]]), 1.0, 0.1)
    with pytest.raises(ValueError, match="positive semidefinite"):
        propagate(spec, np.diag([1.5, -0.5]).astype(complex), 1.0, 0.1)
    # positive populations in the eigenbasis of the tilted H, negative only
    # through the coherence: eigenvalues 1.1 and -0.1
    assert spec.compiled.V is not None
    with pytest.raises(ValueError, match="positive semidefinite"):
        propagate(spec, np.array([[0.5, 0.6], [0.6, 0.5]]), 1.0, 0.1)


@pytest.mark.parametrize("dim", [3, 5])
def test_propagate_rejects_a_start_of_the_wrong_shape(dim):
    spec = RhsSpec.for_system(build_oscillator(4, 1.0, "harmonic", BathModel(1.0, 1.0)))
    rho0 = np.full((dim, dim), 0.1 / dim) + np.eye(dim) * 0.9 / dim
    with pytest.raises(ValueError, match=rf"shape \({dim}, {dim}\).*\(4, 4\)"):
        propagate(spec, rho0, 1.0, 0.1)


@pytest.mark.parametrize("t_final, dt, match", [
    (np.inf, 0.1, "positive and finite"),
    (np.nan, 0.1, "positive and finite"),
    (1.0, np.inf, "positive and finite"),
    (1.0, np.nan, "positive and finite"),
    (1.0, -0.1, "positive and finite"),
    (1e300, 0.1, "overflow the record index"),
    (1e300, 1e-300, "overflow the record index"),  # the quotient itself is inf
])
def test_propagate_rejects_non_finite_or_overflowing_times(t_final, dt, match):
    spec = RhsSpec.for_system(thermal_two_level())
    with pytest.raises(ValueError, match=match):
        propagate(spec, np.eye(2) / 2, t_final, dt)


@pytest.mark.parametrize("record_every", ["expm", 2.5, 0])
def test_propagate_rejects_a_record_every_that_is_not_a_positive_integer(record_every):
    # "expm" is what a call written for the old fifth argument, method, passes
    spec = RhsSpec.for_system(thermal_two_level())
    with pytest.raises(ValueError, match=re.escape(
            f"record_every must be an integer >= 1, got {record_every!r}")):
        propagate(spec, np.eye(2) / 2, 1.0, 0.1, record_every)


def test_propagate_aborts_on_divergence():
    # strongly amplifying dephasing sign blows coherences up
    spec = RhsSpec.for_system(thermal_two_level(), gamma_pd=+50.0)
    rho0 = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
    with pytest.raises(PropagationError, match="instability"):
        with pytest.warns(UserWarning):
            propagate(spec, rho0, 10.0, 1e-3, 100)


def test_propagate_keeps_a_cross_block_coherent_start_positive():
    # a coherence between levels that share no transition is damped at half
    # their out-rates, under the multi-level kernel as under its pairwise
    # jump list, so the N=3 ladder stays positive from (|0> + |2>)/sqrt(2)
    lad = build_oscillator(3, 2.5, "harmonic", BathModel(1.0, 1.0))
    psi = np.zeros(3, dtype=complex)
    psi[0] = psi[2] = 1 / np.sqrt(2)
    rho0 = np.outer(psi, psi.conj())
    spec = RhsSpec.for_system(lad)
    traj = propagate(spec, rho0, 8.0, 0.01, 40)
    assert traj.min_eig.min() >= -1e-12
    assert not any("positivity" in w for w in traj.warnings)
    for jumps in (False, True):
        S = build_superoperator(spec, jumps)
        dense = [(scipy.linalg.expm(S * t) @ vectorize(rho0)).reshape(3, 3, order="F")
                 for t in traj.times]
        assert np.abs(traj.states - np.array(dense)).max() <= 1e-12


def test_propagate_flags_truncation_leak():
    lad = build_oscillator(4, 1.0, "harmonic", BathModel(1.0, 1.0))
    rho0 = gibbs_state(lad.hamiltonian, 3.0)  # hot start on a short ladder
    traj = propagate(RhsSpec.for_system(lad), rho0, 1.0, 0.01, 10)
    assert any("truncation" in w for w in traj.warnings)


# --------------------------------- tilted specs, rotated into the H eigenbasis


def tilted_two_level_spec(gamma_pd=0.0):
    sys2 = TwoLevelSystem(1.0, (0.6, 0.0, 0.8), 0.3, 0.7)
    spec = RhsSpec.for_system(sys2, gamma_pd=gamma_pd)
    assert spec.compiled.V is not None  # H is not diagonal
    return spec


def test_dense_amplifying_modes_refuse_a_fixed_point():
    with pytest.raises(FixedPointError, match="amplifying modes"):
        fixed_point(tilted_two_level_spec(gamma_pd=+2.0))


def test_dense_fixed_point_diagonalizes_its_superoperator_once(monkeypatch):
    calls = []
    eig, eigvals = np.linalg.eig, np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append("eig") or eig(a))
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append("eigvals") or eigvals(a))
    fixed_point(tilted_two_level_spec(gamma_pd=-0.2))
    assert calls == ["eig"]


@EXACT_FLOW
def test_dense_amplifying_modes_warn_exactly_once():
    spec = tilted_two_level_spec(gamma_pd=+2.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(PropagationError, match="instability"):
            propagate(spec, COHERENT_RHO0, 0.5, 0.01, 10)
    messages = [str(w.message) for w in caught]
    assert sum("amplifying modes" in m for m in messages) == 1, messages


@EXACT_FLOW
def test_closed_form_coherences_match_the_superoperator_at_long_times():
    # weak damping keeps the coherences well above round-off at t = 30,
    # after up to 7 * 30 radians of phase
    lad = build_oscillator(8, 1.0, "harmonic", BathModel(0.05, 1.0))
    spec = RhsSpec.for_system(lad, gamma_pd=-0.01)
    rho0 = _coherent_state(8)
    dt = 0.01
    traj = propagate(spec, rho0, 30.0, dt, 500)
    S = build_superoperator(spec)
    ref = [(scipy.linalg.expm(S * t) @ vectorize(rho0)).reshape(8, 8, order="F")
           for t in traj.times]
    assert np.abs(ref[-1][0, 1]) > 0.1 * np.abs(rho0[0, 1])
    worst = max(np.abs(a - b).max() for a, b in zip(traj.states, ref))
    assert worst <= 1e-12, f"closed-form records vs oracle {worst:.3e}"


# ------------------------------------------- records checked and diagnosed in passes


def _diagnose_one(rho, top_index):
    """The per-record diagnostics formula that the stacked ``_diagnose`` replaced."""
    trace_dev = abs(rho.trace() - 1.0)
    min_eig = float(np.linalg.eigvalsh(herm_part(rho)).min())
    top = float(rho[top_index, top_index].real) if top_index is not None else np.nan
    return float(trace_dev), min_eig, top


def _ladder_spec(N=5, gamma_pd=-0.1):
    lad = build_oscillator(N, 1.0, "harmonic", BathModel(1.0, 1.0))
    spec = RhsSpec.for_system(lad, gamma_pd=gamma_pd)
    assert spec.compiled.V is None  # H is exactly diagonal
    return spec


def _coherent_state(dim, seed=3):
    A = np.random.default_rng(seed).standard_normal((dim, 2 * dim)).view(complex)
    return A @ A.conj().T / np.linalg.norm(A) ** 2


def _gibbs_start(spec, T=0.7):
    """A Gibbs state of a diagonal H: no coherences, exactly."""
    rho0 = gibbs_state(spec.hamiltonian, T)
    assert not np.count_nonzero(rho0 - np.diag(np.diag(rho0)))
    return rho0


def _one_coherence(rho0, a=0, b=1):
    """rho0 with the single coherence rho_ab (and its conjugate) switched on."""
    rho = rho0.copy()
    c = 1e-3 * np.sqrt(rho[a, a].real * rho[b, b].real)
    rho[a, b], rho[b, a] = c, c
    return rho


def _start(case, spec):
    return _gibbs_start(spec) if case == "gibbs" else _coherent_state(spec.dim)


def _spec(case):
    return tilted_two_level_spec(gamma_pd=-0.2) if case == "tilted" else _ladder_spec()


def _assert_diagnostics_are_the_formula(traj, top, records):
    want = np.array([_diagnose_one(rho, top) for rho in records]).T
    for name, ref in zip(("trace_dev", "min_eig", "top_pop"), want):
        np.testing.assert_array_equal(getattr(traj, name), ref, err_msg=name)


@pytest.mark.parametrize("case", ["ladder", "tilted", "gibbs"])
def test_stacked_diagnostics_match_per_record_formula(case):
    spec = _spec(case)
    top = spec.system.N - 1 if isinstance(spec.system, LadderSystem) else None
    rng = np.random.default_rng(17)
    n, dim = 40, spec.dim
    # populations over mixed scales, some slightly negative
    pops = rng.uniform(0.0, 1.0, (n, dim)) * np.exp(rng.uniform(-80.0, 0.0, (n, dim)))
    pops[::3, 1] = -rng.uniform(0.0, 1e-9, len(pops[::3]))
    pops[::4] /= pops[::4].sum(axis=1, keepdims=True)
    if case == "gibbs":
        pairs = (np.array([], dtype=int), np.array([], dtype=int))
        cohs = np.empty((n, 0), dtype=complex)
    else:
        pairs = np.triu_indices(dim, 1)
        shape = (n, len(pairs[0]))
        cohs = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                * np.exp(rng.uniform(-30.0, 3.0, (n, 1))))  # mixed scales
    # the (n, d) populations and (n, k) coherences against the formula on the
    # Hermitian states they stand for
    stack = _assemble(pops, cohs, pairs)
    assert not np.count_nonzero(stack - stack.conj().swapaxes(1, 2))
    want = np.array([_diagnose_one(rho, top) for rho in stack]).T
    for got, ref in zip(_diagnose(pops, cohs, pairs, top), want):
        np.testing.assert_array_equal(got, ref)
    # over 150 records, every diagnostic is the formula applied
    # to the recorded state, bit for bit: to the state read from ``states``
    # when H is diagonal, and in the eigenbasis of H otherwise, which the
    # rotated state matches to round-off
    rho0 = _start(case, spec)
    traj = propagate(spec, rho0, 1.5, 0.01, 1)
    assert traj.states.shape == (151, spec.dim, spec.dim)
    # a coherence-free start tracks no coherence
    assert traj._pops.shape == (151, spec.dim)
    assert traj._cohs.shape == (151, 0 if case == "gibbs" else spec.dim * (spec.dim - 1) // 2)
    if case == "tilted":
        _assert_diagnostics_are_the_formula(
            traj, top, _assemble(traj._pops, traj._cohs, traj._pairs))
        rotated = np.array([_diagnose_one(rho, top) for rho in traj.states]).T
        for name, ref in zip(("trace_dev", "min_eig", "top_pop"), rotated):
            np.testing.assert_allclose(getattr(traj, name), ref, rtol=0, atol=1e-14,
                                       err_msg=name)
    else:
        _assert_diagnostics_are_the_formula(traj, top, traj.states)
    if case == "gibbs":
        # one coherence is enough to take the eigensolve of the assembled state
        traj = propagate(spec, _one_coherence(rho0), 1.5, 0.01, 1)
        assert traj._cohs.shape == (151, 1)
        assert traj.states[-1, 0, 1] != 0.0
        _assert_diagnostics_are_the_formula(traj, top, traj.states)


def test_coherence_free_records_match_the_full_matrix_route():
    # populations never see the coherences, so a start with one coherence of
    # 1e-300, whose min_eig comes from an eigensolve of the assembled state,
    # records the same populations
    spec = _ladder_spec(6)
    rho0 = _gibbs_start(spec)
    tiny = rho0.copy()
    tiny[0, 5] = tiny[5, 0] = 1e-300
    pops = propagate(spec, rho0, 2.02, 0.01, 3)
    full = propagate(spec, tiny, 2.02, 0.01, 3)
    assert pops._cohs.shape[1] == 0 and full._cohs.shape[1] == 1
    np.testing.assert_array_equal(pops.populations(), full.populations())
    states = full.states.copy()
    states[:, 0, 5] = states[:, 5, 0] = 0.0
    np.testing.assert_array_equal(pops.states, states)
    for name in ("times", "trace_dev", "top_pop"):
        np.testing.assert_array_equal(getattr(pops, name), getattr(full, name), err_msg=name)
    # eigvalsh reduces a matrix with any nonzero coherence before it
    # solves, which rounds differently from the exact min(p)
    np.testing.assert_allclose(pops.min_eig, full.min_eig, rtol=1e-12)
    # states is built on each read and never aliases the populations
    assert pops.states is not pops.states
    pops.populations()[:] = 0.0
    assert pops.populations().sum(axis=1).min() > 0.99


@EXACT_FLOW
@pytest.mark.parametrize("case", ["ladder", "tilted", "gibbs"])
def test_trajectory_does_not_depend_on_the_record_chunk(monkeypatch, case):
    spec = _spec(case)
    rho0 = _start(case, spec)
    # gaps 3, ..., 3, 1: 69 records, so a chunk of 64 leaves a partial one
    ref = propagate(spec, rho0, 2.02, 0.01, 3)
    assert len(ref.times) == 69
    assert (ref._cohs.shape[1] == 0) == (case == "gibbs")
    dim = spec.dim
    per_record = 16 * dim if case == "gibbs" else 16 * dim * dim
    for chunk in (1, 2, 5, 68, 69, 200):
        # a byte budget of exactly `chunk` records per pass
        monkeypatch.setattr(sys.modules["ebloch.propagate"], "_CHECK_BYTES", chunk * per_record)
        traj = propagate(spec, rho0, 2.02, 0.01, 3)
        for name in ("times", "states", "trace_dev", "min_eig", "top_pop"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(ref, name),
                                          err_msg=f"{name} at chunk {chunk}")
        np.testing.assert_array_equal(traj.populations(), ref.populations())


def _record_loop(spec, rho0, steps, dt):
    """Populations at the given steps, one gap map per record applied as
    ``M @ p``, the maps built as ``propagate`` builds them."""
    gen = spec.compiled
    p = gen.rotate_in(herm_part(rho0)).diagonal().real
    out = [p]
    for gap in np.diff(steps):
        p = expm(gen.W * (int(gap) * dt)) @ p
        out.append(p)
    return np.array(out)


@EXACT_FLOW
def test_doubled_records_match_the_per_record_loop():
    # the quench ladder, whose Gibbs tail falls to 3.5e-57; 20,000 records of
    # dim 14 square their map up to M^8192.  Both routes drift
    # from the exact powers of the gap map by O(n eps): against a long-double
    # chain, the loop by 1.8e-13 and the doubling by 4.3e-13 at n = 20,000
    lad = build_oscillator(14, 10.0, "harmonic", BathModel(1.0, 1.0))
    spec = RhsSpec.for_system(lad)
    rho0 = gibbs_state(spec.hamiltonian, 2.0)
    dt = 1e-3
    traj = propagate(spec, rho0, 20000 * dt, dt, 1)
    ref = _record_loop(spec, rho0, np.arange(20001), dt)
    assert ref.min() < 1e-56
    rel = (np.abs(traj._pops - ref) / ref).max()
    assert rel <= 1e-12, f"doubled records vs the loop {rel:.3e}"


@EXACT_FLOW
@pytest.mark.parametrize("t_final, steps", [
    (0.05, [0, 5]),  # one regular record
    (0.07, [0, 5, 7]),  # one regular record and a shorter last gap
    (0.12, [0, 5, 10, 12]),  # two regular records
])
def test_records_that_take_no_squaring_are_the_loop_bit_for_bit(t_final, steps):
    # at dim 32, squaring the map for one or two records saves no call
    spec = _ladder_spec(32, 0.0)
    rho0 = _gibbs_start(spec)
    traj = propagate(spec, rho0, t_final, 0.01, 5)
    np.testing.assert_array_equal(traj.times, np.array(steps) * 0.01)
    np.testing.assert_array_equal(traj._pops, _record_loop(spec, rho0, steps, 0.01))


@pytest.mark.parametrize("dim, coherent, t_final, passes", [
    (14, False, 1.2, 1),  # 1,201 records of 224 bytes in one pass
    (32, True, 2.0, 32),  # 2,001 records of 16 KiB: 64 per pass
    (64, False, 20.0, 20),  # 20,001 records of 1 KiB: 1,024 per pass
])
def test_records_are_checked_in_passes_of_the_byte_budget(monkeypatch, dim, coherent,
                                                          t_final, passes):
    import tracemalloc
    mod = sys.modules["ebloch.propagate"]
    spec = _ladder_spec(dim)
    rho0 = _coherent_state(dim) if coherent else _gibbs_start(spec)
    spec.compiled  # compile outside the traced span
    # records per pass, and the bytes that each pass of the diagnostics
    # allocates at its peak, over what was held when it was called
    calls, peaks = [], []
    real_diagnose = mod._diagnose

    def traced(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = real_diagnose(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        calls.append(len(args[0]))
        return out

    monkeypatch.setattr(mod, "_diagnose", traced)
    tracemalloc.start()
    try:
        traj = propagate(spec, rho0, t_final, 1e-3, 1)
    finally:
        tracemalloc.stop()
    assert len(calls) == passes and sum(calls) == traj.times.size
    assert (traj._cohs.shape[1] > 0) == coherent
    assert max(peaks) <= 1.1 * mod._CHECK_BYTES, f"_diagnose peaks at {max(peaks)} bytes"


@pytest.mark.parametrize("case, gamma_pd, dt", [
    ("ladder", 5.0, 1e-3),
    ("tilted", 50.0, 1e-3),
    ("ladder", 1e4, 1.0),  # exp(C dt) would overflow at the first step
])
def test_amplifying_start_is_refused_before_its_first_step(monkeypatch, case, gamma_pd, dt):
    import tracemalloc
    mod = sys.modules["ebloch.propagate"]
    spec = _ladder_spec(4, gamma_pd) if case == "ladder" \
        else tilted_two_level_spec(gamma_pd=gamma_pd)
    rho0 = _coherent_state(spec.dim)
    gen = spec.compiled  # compile outside the traced span
    a, b = np.nonzero(np.triu(gen.rotate_in(herm_part(rho0)) != 0, 1))
    growth = dense_rates(gen)[a, b].real
    j = int(np.argmax(growth))
    assert growth[j] > 0.0
    want = (f"coherence instability: tracked pair ({a[j]}, {b[j]}) grows at "
            f"Re C = {growth[j]:.6g} > 1e-10")
    # records that would take about 80 MB, well within the record limit
    n_steps = 80_000_000 // (spec.dim * 8 + len(a) * 16 + 32)
    built = []
    monkeypatch.setattr(mod, "expm", lambda A: built.append(A))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "assembled generator has amplifying modes")
        tracemalloc.start()
        try:
            with pytest.raises(PropagationError, match="instability") as info:
                propagate(spec, rho0, n_steps * dt, dt, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert str(info.value) == want
    assert not built
    assert peak < 1 << 20, f"{peak} bytes traced before the growth check"


def test_coherence_free_start_runs_where_the_coherence_map_overflows():
    # exp(C dt) overflows at gamma_pd = 1e4, dt = 1; a Gibbs start has no
    # coherence for inf * 0 to turn into NaN, so it never builds that map and
    # runs to the end, where a start with one coherence is refused before its
    # first step
    spec = _ladder_spec(4, 1e4)
    rho0 = _gibbs_start(spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        traj = propagate(spec, rho0, 1000.0, 1.0, 1)
    assert [str(w.message).split(" (")[0] for w in caught] == [
        "assembled generator has amplifying modes"]
    assert traj.times[-1] == 1000.0
    states = traj.states
    assert not np.count_nonzero(states - states[:, np.arange(4), np.arange(4), None]
                                * np.eye(4))
    assert traj.trace_dev.max() <= 1e-12 and traj.min_eig.min() >= 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        with pytest.raises(PropagationError, match="instability: tracked pair \\(0, 1\\)"):
            propagate(spec, _one_coherence(rho0), 1000.0, 1.0, 1)


def test_untracked_coherence_map_may_overflow():
    # gamma_pd = 0.4 damps the coherence (0, 1) (Re C = -0.369) and amplifies
    # (0, 3) (Re C = 2.369), whose exp(C dt) overflows at dt = 400 (e^947);
    # only the tracked (0, 1) is evaluated, so no inf * 0 turns into NaN, and
    # it stays above 0 (about 1e-3 e^-295) at t = 800
    spec = _ladder_spec(4, 0.4)
    rho0 = _one_coherence(_gibbs_start(spec))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        traj = propagate(spec, rho0, 800.0, 400.0, 1)
    assert [str(w.message).split(" (")[0] for w in caught] == [
        "assembled generator has amplifying modes"]
    assert traj.times[-1] == 800.0
    states = traj.states
    untracked = ~np.eye(4, dtype=bool)
    untracked[0, 1] = untracked[1, 0] = False
    assert not np.count_nonzero(states[:, untracked])
    assert 0.0 < np.abs(states[-1, 0, 1]) < np.abs(states[1, 0, 1]) < np.abs(rho0[0, 1])
    assert traj.trace_dev.max() <= 1e-12 and traj.min_eig.min() >= 0.0


@pytest.mark.parametrize("case", ["gibbs", "coherent"])
def test_propagate_bounds_record_memory_before_allocating(case):
    # 1e15 steps fit the record index; listing their indices or allocating
    # their records would exhaust memory, so the bound must come first
    import tracemalloc
    spec = _ladder_spec()
    rho0 = _gibbs_start(spec) if case == "gibbs" else _coherent_state(spec.dim)
    spec.compiled  # compile outside the traced span
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="over the record limit"):
            propagate(spec, rho0, 1e12, 1e-3, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, f"{peak} bytes traced before the record bound"


def test_record_bound_counts_the_bytes_of_the_route_taken(monkeypatch):
    # 101 records at dim 5: 5 * 8 bytes of populations, 16 per tracked
    # coherence and 32 for the time and diagnostics, so 72 for a Gibbs start,
    # 88 with one coherence and 232 with all ten
    spec = _ladder_spec()
    monkeypatch.setattr(sys.modules["ebloch.propagate"], "MAX_RECORD_BYTES", 101 * 72)
    assert propagate(spec, _gibbs_start(spec), 1.0, 0.01, 1).times.size == 101
    with pytest.raises(ValueError, match="101 records of dim 5 need 8.89e\\+03 bytes"):
        propagate(spec, _one_coherence(_gibbs_start(spec)), 1.0, 0.01, 1)
    with pytest.raises(ValueError, match="101 records of dim 5 need 2.34e\\+04 bytes"):
        propagate(spec, _coherent_state(spec.dim), 1.0, 0.01, 1)
    monkeypatch.setattr(sys.modules["ebloch.propagate"], "MAX_RECORD_BYTES", 101 * 88)
    assert propagate(spec, _one_coherence(_gibbs_start(spec)), 1.0, 0.01, 1)._cohs.shape \
        == (101, 1)
    monkeypatch.setattr(sys.modules["ebloch.propagate"], "MAX_RECORD_BYTES", 101 * 72 - 1)
    with pytest.raises(ValueError, match="over the record limit"):
        propagate(spec, _gibbs_start(spec), 1.0, 0.01, 1)


@EXACT_FLOW
def test_coherent_records_take_the_memory_of_their_layout():
    # 2,001 records of 32 populations and 496 coherences hold 16.5 MB; a
    # (2001, 32, 32) stack of matrices alone would hold 32.8 MB
    import tracemalloc
    spec = _ladder_spec(32)
    rho0 = _coherent_state(spec.dim)
    spec.compiled  # compile outside the traced span
    tracemalloc.start()
    try:
        traj = propagate(spec, rho0, 2.0, 1e-3, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6, f"{peak / 1e6:.1f} MB traced"
    assert traj.times.size == 2001 and traj._cohs.shape == (2001, 496)


def test_reading_states_is_bounded_before_allocating():
    # 20,001 records of an N=64 Gibbs start hold 11 MB; as (64, 64) complex
    # states they would need 1.3 GB, over the record limit
    import tracemalloc
    spec = _ladder_spec(64)
    traj = propagate(spec, _gibbs_start(spec), 20.0, 1e-3, 1)
    assert traj._pops.nbytes < 11e6
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="20001 states of dim 64 need 1.31e\\+09 bytes"):
            traj.states
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"{peak} bytes traced before the states bound"


def test_populations_of_a_rotated_run_share_the_states_bound(monkeypatch):
    # 1,001 records of a dim-4 start under a non-diagonal H take at most 168
    # bytes each (six coherences), and 256 each as 4x4 complex states, which
    # only ``states`` assembles
    H = _coherent_state(4, seed=5)
    spec = RhsSpec(H)
    assert spec.compiled.V is not None
    monkeypatch.setattr(sys.modules["ebloch.propagate"], "MAX_RECORD_BYTES", 200_000)
    traj = propagate(spec, gibbs_state(H, 1.0), 1.0, 1e-3, 1)
    assert traj.times.size == 1001
    with pytest.raises(ValueError, match="1001 states of dim 4 need 2.56e\\+05 bytes"):
        traj.states
    # populations are read from the records, never from the states
    pops = traj.populations()
    assert pops.shape == (1001, 4)
    monkeypatch.setattr(sys.modules["ebloch.propagate"], "MAX_RECORD_BYTES", 1 << 30)
    diagonal = traj.states.diagonal(axis1=1, axis2=2).real
    np.testing.assert_allclose(pops, diagonal, rtol=0, atol=1e-15)


def test_populations_under_a_dense_h_read_the_records():
    # a random dim-16 H and a coherent start track all 120 coherences; the
    # populations are read from them without an (n, 16, 16) state stack
    import tracemalloc
    H = _coherent_state(16, seed=11)
    spec = RhsSpec(H)
    assert spec.compiled.V is not None
    traj = propagate(spec, _coherent_state(16), 1.0, 1e-3, 1)
    assert traj._cohs.shape == (1001, 120)
    tracemalloc.start()
    try:
        pops = traj.populations()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack_bytes = 1001 * 16 * 16 * 16
    assert peak < stack_bytes, f"{peak} bytes traced, one state stack is {stack_bytes}"
    diagonal = traj.states.diagonal(axis1=1, axis2=2).real
    np.testing.assert_allclose(pops, diagonal, rtol=0, atol=1e-15)


def test_reading_rotated_states_holds_one_stack_and_passes_of_the_byte_budget():
    # 1,001 records of a coherent dim-16 start under a non-diagonal H: the
    # (1001, 16, 16) stack takes 4.1 MB, and each pass of its rotation out of
    # the eigenbasis at most two 1 MiB temporaries
    import tracemalloc
    from ebloch.propagate import _CHECK_BYTES, _assemble
    H = _coherent_state(16, seed=11)
    spec = RhsSpec(H)
    V = spec.compiled.V
    assert V is not None
    traj = propagate(spec, _coherent_state(16), 1.0, 1e-3, 1)
    stack_bytes = 1001 * 16 * 16 * 16
    tracemalloc.start()
    try:
        states = traj.states
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack_bytes > 3 * _CHECK_BYTES
    assert peak <= stack_bytes + 3 * _CHECK_BYTES, f"{peak} bytes traced for {stack_bytes}"
    # each matrix's products are the ones the whole-stack product makes
    whole = V @ _assemble(traj._pops, traj._cohs, traj._pairs) @ V.conj().T
    np.testing.assert_array_equal(states, whole)
