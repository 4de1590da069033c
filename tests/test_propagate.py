"""Tests for RK4/expm propagation, the superoperator, and diagnostics."""

import math
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

from ebloch.dissipators import RhsSpec, master_rhs
from ebloch.linalg import herm_part, is_hermitian, trace_distance
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
    TransitionSpec,
    TwoLevelSystem,
    build_oscillator,
    build_two_level_hamiltonian,
    rates_from_bath,
)
from oracles import build_superoperator, split_apply, step_rk4, vectorize


def thermal_two_level(E=1.0, T=1.0, gamma=1.0, eps=(0.48, 0.36, 0.8)):
    gp, gm = rates_from_bath(BathModel(gamma, T), E)
    return TwoLevelSystem(E, eps, gp, gm)


COHERENT_RHO0 = np.array([[0.7, 0.25 + 0.1j], [0.25 - 0.1j, 0.3]], dtype=complex)


# ---------------------------------------------------------- matrix_exp oracle


def matrix_exp(A) -> np.ndarray:
    """Matrix exponential, the oracle for exact unitary evolution.

    Hermitian input goes through the eigendecomposition; everything else
    uses Pade scaling-and-squaring (scipy.linalg.expm).
    """
    M = np.asarray(A, dtype=complex)
    if is_hermitian(M, 1e-12):
        w, V = np.linalg.eigh(0.5 * (M + M.conj().T))
        return (V * np.exp(w)) @ V.conj().T
    return scipy.linalg.expm(M)


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_matrix_exp_zero_and_diagonal():
    np.testing.assert_allclose(matrix_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    np.testing.assert_allclose(
        matrix_exp(np.diag([1.5, -0.3])), np.diag(np.exp([1.5, -0.3])), rtol=1e-14
    )


def test_matrix_exp_against_taylor_series():
    rng = np.random.default_rng(6)
    for _ in range(10):
        A = random_complex(rng, 4)
        A *= 0.8 / np.linalg.norm(A)
        series = np.eye(4, dtype=complex)
        term = np.eye(4, dtype=complex)
        for k in range(1, 50):
            term = term @ A / k
            series += term
        got = matrix_exp(A)
        assert np.linalg.norm(got - series) <= 1e-10 * np.linalg.norm(series)


# ------------------------------------------------------------------------ expm


def _squarings(A):
    """Squarings that [13/13] Pade scaling and squaring takes for A."""
    norm = np.linalg.norm(A, 1)
    return max(0, math.ceil(math.log2(norm / 5.371920351148152))) if norm else 0


def _rel_error(got, ref):
    return np.linalg.norm(got - ref, 1) / np.linalg.norm(ref, 1)


def test_expm_matches_scipy_on_the_exact_ladders_and_two_level_rates():
    mats = []
    for kind, N in (("eben", 32), ("gkls", 24)):
        for T in (0.7, 1.5):
            lad = build_oscillator(N, 1.0, "harmonic", BathModel(1.0, T))
            mats += [RhsSpec.for_system(lad, kind).compiled.W * t for t in (0.02, 0.05)]
    for kind in ("ebe2", "gkls"):
        W = RhsSpec.for_system(thermal_two_level(eps=(0.6, 0.0, 0.8)), kind).compiled.W
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
    # two rates of 1e308 into the middle level: its W diagonal is -inf
    lad = LadderSystem(3, (0.0, 1.0, 2.0), (TransitionSpec(0, 1, 1e308, 1e308, 1.0),
                                            TransitionSpec(1, 2, 1e308, 1e308, 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow is the input
        spec = RhsSpec.for_system(lad)
        assert spec.compiled.W[1, 1] == -np.inf
        with pytest.raises(PropagationError, match="step instability at t=0: rhs norm nan"):
            propagate(spec, np.diag([1.0, 0.0, 0.0]), 0.1, 0.01)


def test_each_distinct_record_gap_builds_one_expm_map(monkeypatch):
    # the exact workload's grid: gaps 5, 5, 2 steps, so two maps
    spec = RhsSpec.for_system(build_oscillator(6, 1.0, "harmonic", BathModel(1.0, 1.0)))
    built = []
    real = sys.modules["ebloch.propagate"].expm
    monkeypatch.setattr(sys.modules["ebloch.propagate"], "expm",
                        lambda A: built.append(A) or real(A))
    traj = propagate(spec, gibbs_state(spec.hamiltonian, 2.0), 0.12, 0.01, "expm", 5)
    assert len(traj.times) == 4
    W = spec.compiled.W
    assert len(built) == 2
    np.testing.assert_array_equal(built[0], W * 0.05)
    np.testing.assert_array_equal(built[1], W * 0.02)


# -------------------------------------------------------------------- step_rk4


def test_step_rk4_fixes_eigenprojector_of_closed_system():
    H = build_two_level_hamiltonian(1.0, (0.6, 0, 0.8))
    w, V = np.linalg.eigh(H)
    proj = np.outer(V[:, 1], V[:, 1].conj())
    out = step_rk4(RhsSpec(H, "gkls"), proj, 0.05)
    assert np.abs(out - proj).max() <= 1e-12


def test_step_rk4_matches_exact_unitary_to_dt4():
    H = build_two_level_hamiltonian(1.0, (0, 0.6, 0.8))
    spec = RhsSpec(H, "gkls")
    rho = COHERENT_RHO0.copy()
    dt = 1e-3
    n = 1000
    for _ in range(n):
        rho = step_rk4(spec, rho, dt)
    U = matrix_exp(-1j * H * (n * dt))
    exact = U @ COHERENT_RHO0 @ U.conj().T
    assert np.abs(rho - exact).max() <= 1e-8
    # purity drift stays at the integrator error scale
    assert abs(np.trace(rho @ rho).real - np.trace(COHERENT_RHO0 @ COHERENT_RHO0).real) <= 1e-10


def test_step_rk4_aborts_on_nan():
    spec = RhsSpec(np.diag([1.0, -1.0]), "gkls")
    bad = np.array([[np.nan, 0], [0, 1.0]], dtype=complex)
    with pytest.raises(PropagationError, match="NaN"):
        step_rk4(spec, bad, 0.1)


# ------------------------------------------------------------- superoperator


def test_superoperator_consistent_with_master_rhs():
    rng = np.random.default_rng(40)
    lad = build_oscillator(4, 1.0, "harmonic", BathModel(1.0, 1.0))
    for spec in (RhsSpec.for_system(thermal_two_level()), RhsSpec.for_system(lad)):
        S = build_superoperator(spec)
        for _ in range(10):
            A = rng.standard_normal((spec.dim,) * 2) + 1j * rng.standard_normal((spec.dim,) * 2)
            lhs = S @ vectorize(A)
            rhs = vectorize(master_rhs(A, spec))
            assert np.abs(lhs - rhs).max() <= 1e-12 * max(1, np.abs(rhs).max())


def test_superoperator_unitary_only_bohr_frequencies():
    # diagonal H: S is diagonal in the matrix-unit basis, entries -i(E_a - E_b)
    energies = np.array([0.0, 1.0, 2.7])
    spec = RhsSpec(np.diag(energies), "gkls")
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
    traj = propagate(RhsSpec.for_system(sys2), rho_g, 5.0, 0.01, "expm", 10)
    for state in traj.states:
        assert np.abs(state - rho_g).max() <= 1e-9


def test_propagate_rk4_and_expm_agree():
    sys2 = thermal_two_level()
    spec = RhsSpec.for_system(sys2)
    kw = dict(t_final=5.0, dt=1e-3, record_every=250)
    tr = propagate(spec, COHERENT_RHO0, method="rk4", **kw)
    te = propagate(spec, COHERENT_RHO0, method="expm", **kw)
    np.testing.assert_allclose(tr.times, te.times)
    worst = max(trace_distance(a, b) for a, b in zip(tr.states, te.states))
    assert worst <= 1e-8


def test_propagate_closed_system_conserves_purity():
    H = build_two_level_hamiltonian(1.0, (0.6, 0, 0.8))
    traj = propagate(RhsSpec(H, "gkls"), COHERENT_RHO0, 5.0, 0.01, "expm", 20)
    purities = [np.trace(s @ s).real for s in traj.states]
    assert max(purities) - min(purities) <= 1e-10


def test_propagate_trace_drift_bounds():
    sys2 = thermal_two_level()
    spec = RhsSpec.for_system(sys2)
    tr = propagate(spec, COHERENT_RHO0, 10.0, 1e-3, "rk4", 500)
    assert tr.trace_dev.max() <= 1e-10
    te = propagate(spec, COHERENT_RHO0, 10.0, 1e-2, "expm", 100)
    assert te.trace_dev.max() <= 1e-12


def test_propagate_monotone_approach_to_gibbs():
    sys2 = thermal_two_level(E=1.0, T=1.0)
    rho_g = gibbs_state(sys2.hamiltonian, 1.0)
    traj = propagate(RhsSpec.for_system(sys2), COHERENT_RHO0, 8.0, 0.01, "expm", 20)
    dists = [trace_distance(s, rho_g) for s in traj.states]
    for a, b in zip(dists, dists[1:]):
        assert b <= a + 1e-12


def test_propagate_records_final_time_and_diagnostics():
    lad = build_oscillator(5, 1.0, "harmonic", BathModel(1.0, 1.0))
    rho0 = gibbs_state(lad.hamiltonian, 2.0)
    traj = propagate(RhsSpec.for_system(lad), rho0, 1.05, 0.1, "rk4", 4)
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
    with pytest.raises(ValueError, match="method"):
        propagate(spec, np.eye(2) / 2, 1.0, 0.1, method="euler")


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


def test_propagate_aborts_on_divergence():
    # strongly amplifying dephasing sign blows coherences up
    spec = RhsSpec.for_system(thermal_two_level(), gamma_pd=+50.0)
    rho0 = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
    with pytest.raises(PropagationError, match="instability"):
        with pytest.warns(UserWarning):
            propagate(spec, rho0, 10.0, 1e-3, "expm", 100)


def test_propagate_flags_undamped_cross_block_coherence():
    # coherence between non-adjacent levels is untouched by the multi-level
    # kernel while its populations decay: positivity is lost and must be flagged
    lad = build_oscillator(3, 2.5, "harmonic", BathModel(1.0, 1.0))
    psi = np.zeros(3, dtype=complex)
    psi[0] = psi[2] = 1 / np.sqrt(2)
    rho0 = np.outer(psi, psi.conj())
    traj = propagate(RhsSpec.for_system(lad), rho0, 8.0, 0.01, "expm", 40)
    assert traj.min_eig.min() < -1e-8
    assert any("positivity" in w for w in traj.warnings)
    # the pairwise jump construction damps that coherence and stays positive
    traj_g = propagate(RhsSpec.for_system(lad, "gkls"), rho0, 8.0, 0.01, "expm", 40)
    assert traj_g.min_eig.min() >= -1e-8
    assert not any("positivity" in w for w in traj_g.warnings)


def test_propagate_flags_truncation_leak():
    lad = build_oscillator(4, 1.0, "harmonic", BathModel(1.0, 1.0))
    rho0 = gibbs_state(lad.hamiltonian, 3.0)  # hot start on a short ladder
    traj = propagate(RhsSpec.for_system(lad), rho0, 1.0, 0.01, "expm", 10)
    assert any("truncation" in w for w in traj.warnings)


# --------------------------------- tilted specs, rotated into the H eigenbasis


def tilted_two_level_spec(gamma_pd=0.0):
    sys2 = TwoLevelSystem(1.0, (0.6, 0.0, 0.8), 0.3, 0.7)
    spec = RhsSpec.for_system(sys2, gamma_pd=gamma_pd)
    assert spec.compiled.V is not None  # H is not diagonal
    return spec


def test_dense_rk4_outside_stability_region_raises_before_stepping(monkeypatch):
    spec = tilted_two_level_spec()
    calls = []
    monkeypatch.setattr(sys.modules["ebloch.dissipators"], "master_rhs",
                        lambda rho, s: calls.append(np.shape(rho)) or master_rhs(rho, s))
    with pytest.raises(PropagationError, match="unstable") as info:
        propagate(spec, COHERENT_RHO0, 30.0, 3.0, "rk4")
    # no superoperator probe and no step
    assert calls == []
    growth = float(str(info.value).split("| = ")[1].split()[0])
    assert 2.0 < growth < 3.0


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


@pytest.mark.parametrize("method", ["expm", "rk4"])
def test_dense_amplifying_modes_warn_exactly_once(method):
    spec = tilted_two_level_spec(gamma_pd=+2.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        propagate(spec, COHERENT_RHO0, 0.5, 0.01, method, 10)
    messages = [str(w.message) for w in caught]
    assert sum("amplifying modes" in m for m in messages) == 1, messages


@pytest.mark.parametrize("kind", ["ebe2", "gkls"])
@pytest.mark.parametrize("include_unitary", [True, False])
@pytest.mark.parametrize("gamma_pd", [0.0, -0.2])
def test_dense_rk4_matches_stagewise_oracle(kind, include_unitary, gamma_pd):
    rng = np.random.default_rng(7)
    dt, n_steps = 0.05, 200
    for _ in range(3):
        eps = rng.standard_normal(3)
        eps /= np.linalg.norm(eps)
        sys2 = TwoLevelSystem(float(rng.uniform(0.2, 3.0)), eps,
                              float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.05, 1.0)))
        spec = RhsSpec.for_system(sys2, kind, include_unitary, gamma_pd)
        assert spec.compiled.V is not None
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = A @ A.conj().T
        rho /= np.trace(rho)
        traj = propagate(spec, rho, n_steps * dt, dt, "rk4", 20)
        ref = [rho]
        for k in range(1, n_steps + 1):
            rho = step_rk4(spec, rho, dt)
            if k % 20 == 0:
                ref.append(rho)
        worst = max(np.abs(a - b).max() for a, b in zip(traj.states, ref))
        assert worst <= 1e-12, f"dense RK4 vs step_rk4 {worst:.3e}"


# -------------------------------------------- RK4 stability, record-gap maps


def test_rk4_oscillatory_mode_outside_stability_region_raises_before_stepping(monkeypatch):
    # modes +-3i have Re lambda = 0; |R4(3i)| ~ 1.5 amplifies them every step
    spec = RhsSpec(np.diag([0.0, 3.0]), "gkls")
    diagnosed = []
    real_diagnose = sys.modules["ebloch.propagate"]._diagnose
    monkeypatch.setattr(sys.modules["ebloch.propagate"], "_diagnose",
                        lambda *a: diagnosed.append(1) or real_diagnose(*a))
    with pytest.raises(PropagationError, match="unstable") as info:
        propagate(spec, COHERENT_RHO0, 10.0, 1.0, "rk4")
    assert not diagnosed  # not even t=0 was recorded
    growth = float(str(info.value).split("| = ")[1].split()[0])
    assert 1.4 < growth < 1.6
    # inside the region (|R4(1.5i)| ~ 0.94) the same spec runs
    traj = propagate(spec, COHERENT_RHO0, 10.0, 0.5, "rk4")
    assert np.abs(traj.states[-1]).max() <= np.abs(COHERENT_RHO0).max()


def _stagewise(spec, rho, dt, n_steps, record_every):
    times, states = [0.0], [rho]
    for k in range(1, n_steps + 1):
        rho = step_rk4(spec, rho, dt)
        if k % record_every == 0 or k == n_steps:
            times.append(k * dt)
            states.append(rho)
    return np.array(times), states


@pytest.mark.parametrize("record_every", [300, 1])  # gaps 300, 300, 300, 100 / all 1
def test_split_rk4_gap_maps_match_stagewise_steps(record_every):
    lad = build_oscillator(6, 1.0, "harmonic", BathModel(1.0, 1.0))
    spec = RhsSpec.for_system(lad, gamma_pd=-0.1)
    assert spec.compiled is not None
    A = np.random.default_rng(3).standard_normal((6, 12)).view(complex)
    rho0 = A @ A.conj().T / np.linalg.norm(A) ** 2
    dt = 0.01
    traj = propagate(spec, rho0, 1000 * dt, dt, "rk4", record_every)
    times, ref = _stagewise(spec, rho0, dt, 1000, record_every)
    np.testing.assert_array_equal(traj.times, times)
    rel = max((np.abs(a - b) / np.abs(b)).max() for a, b in zip(traj.states, ref))
    assert rel <= 1e-10, f"split gap maps vs step_rk4 {rel:.3e}"


def test_rk4_stability_checks_only_the_modes_the_run_steps():
    # the coherence (0, 32) of this ladder has lambda = -51.2+32j, outside the
    # RK4 region at dt = 0.1, while eig(W) lies inside it: a Gibbs start
    # never steps that mode, a start that carries it does
    lad = build_oscillator(33, 1.0, "constant", BathModel(1.0, 0.7))
    spec = RhsSpec.for_system(lad, "eben", gamma_pd=-0.05)
    rho0 = _gibbs_start(spec)
    traj = propagate(spec, rho0, 1.0, 0.1, "rk4")
    assert traj.times[-1] == 1.0 and traj.trace_dev.max() <= 1e-12
    with pytest.raises(PropagationError, match=r"unstable: non-amplifying mode "
                                               r"lambda = -51\.2\+32j gives"):
        propagate(spec, _one_coherence(rho0, 0, 32), 1.0, 0.1, "rk4")


@pytest.mark.parametrize("method", ["expm", "rk4"])
def test_closed_form_coherences_match_the_superoperator_at_long_times(method):
    # weak damping keeps the coherences well above round-off at t = 30,
    # after up to 7 * 30 radians of phase
    lad = build_oscillator(8, 1.0, "harmonic", BathModel(0.05, 1.0))
    spec = RhsSpec.for_system(lad, gamma_pd=-0.01)
    rho0 = _coherent_state(8)
    dt = 0.01
    traj = propagate(spec, rho0, 30.0, dt, method, 500)
    if method == "expm":
        S = build_superoperator(spec)
        ref = [(scipy.linalg.expm(S * t) @ vectorize(rho0)).reshape(8, 8, order="F")
               for t in traj.times]
    else:
        ref = _stagewise(spec, rho0, dt, 3000, 500)[1]
    assert np.abs(ref[-1][0, 1]) > 0.1 * np.abs(rho0[0, 1])
    worst = max(np.abs(a - b).max() for a, b in zip(traj.states, ref))
    assert worst <= 1e-12, f"closed-form records vs oracle {worst:.3e}"


@pytest.mark.parametrize("record_every", [300, 1])
def test_dense_rk4_gap_maps_match_stagewise_steps(record_every):
    spec = tilted_two_level_spec(gamma_pd=-0.2)
    dt = 0.01
    traj = propagate(spec, COHERENT_RHO0, 1000 * dt, dt, "rk4", record_every)
    times, ref = _stagewise(spec, COHERENT_RHO0, dt, 1000, record_every)
    np.testing.assert_array_equal(traj.times, times)
    worst = max(np.abs(a - b).max() for a, b in zip(traj.states, ref))
    assert worst <= 1e-12, f"dense gap maps vs step_rk4 {worst:.3e}"


# ------------------------------------------- records checked and diagnosed in chunks


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
    top = spec.system.top_level if isinstance(spec.system, LadderSystem) else None
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
    # 150 records span three chunks; every diagnostic is the formula applied
    # to the recorded state, bit for bit: to the state read from ``states``
    # when H is diagonal, and in the eigenbasis of H otherwise, which the
    # rotated state matches to round-off
    rho0 = _start(case, spec)
    for method in ("expm", "rk4") if case == "gibbs" else ("expm",):
        traj = propagate(spec, rho0, 1.5, 0.01, method, 1)
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
        traj = propagate(spec, _one_coherence(rho0), 1.5, 0.01, "expm", 1)
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
    for method in ("expm", "rk4"):
        pops = propagate(spec, rho0, 2.02, 0.01, method, 3)
        full = propagate(spec, tiny, 2.02, 0.01, method, 3)
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


@pytest.mark.parametrize("method", ["rk4", "expm"])
@pytest.mark.parametrize("case", ["ladder", "tilted", "gibbs"])
def test_trajectory_does_not_depend_on_the_record_chunk(monkeypatch, case, method):
    spec = _spec(case)
    rho0 = _start(case, spec)
    # gaps 3, ..., 3, 1: 69 records, so the last chunk of 64 is partial
    ref = propagate(spec, rho0, 2.02, 0.01, method, 3)
    assert len(ref.times) == 69
    assert (ref._cohs.shape[1] == 0) == (case == "gibbs")
    for chunk in (1, 2, 5, 68, 69, 200):
        monkeypatch.setattr(sys.modules["ebloch.propagate"], "_RECORD_CHUNK", chunk)
        traj = propagate(spec, rho0, 2.02, 0.01, method, 3)
        for name in ("times", "states", "trace_dev", "min_eig", "top_pop"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(ref, name),
                                          err_msg=f"{name} at chunk {chunk}")
        np.testing.assert_array_equal(traj.populations(), ref.populations())


def _conj_symmetric(F):
    """Coherence factors with F[b, a] = conj(F[a, b]) exactly and a zero
    diagonal, so stepped coherences keep the Hermitian symmetry of the state."""
    upper = np.triu(F, 1)
    return upper + upper.conj().T


def _per_record_failure(spec, rho0, t_final, dt, record_every):
    """Message of the PropagationError that an expm run raises when every
    record is checked as soon as it is made, or None if none is raised; the
    state norm is read in the eigenbasis of H."""
    gen = spec.compiled
    s = gen.rotate_in(herm_part(rho0))
    rhs0 = float(np.linalg.norm(split_apply(gen, s)))
    growth_cap = 1e6 * rhs0 if rhs0 > 1e-12 else np.inf
    state_cap = 1e6 * max(1.0, float(np.abs(s).max()))
    n_steps = max(1, round(t_final / dt))
    steps = list(range(0, n_steps + 1, record_every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    p, X = s.diagonal().real, s - np.diag(s.diagonal())
    with np.errstate(all="ignore"):
        for prev, k in zip([0] + steps, steps):
            if k:
                gap = (k - prev) * dt
                p = scipy.linalg.expm(gen.W * gap) @ p
                X = _conj_symmetric(np.exp(gen.C * gap)) * X
                if not (np.isfinite(p.sum()) and np.isfinite(X.sum())):
                    return f"NaN/Inf encountered before t={k * dt:.6g}"
                s = X + np.diag(p)
            rhs = float(np.linalg.norm(split_apply(gen, s)))
            size = float(np.abs(s).max())
            if not np.isfinite(rhs) or rhs > growth_cap or size > state_cap:
                return (f"step instability at t={k * dt:.6g}: rhs norm {rhs:.3e} "
                        f"(initial {rhs0:.3e}), state norm {size:.3e}")
    return None


@pytest.mark.parametrize("case, gamma_pd, dt, message", [
    ("ladder", 5.0, 1e-3, "step instability at t=0.316:"),  # record 316: fifth chunk
    ("tilted", 50.0, 1e-3, "step instability at t=0.28:"),  # record 280: fifth chunk
    ("ladder", 1e4, 1.0, "NaN/Inf encountered before t=1"),  # exp(C dt) overflows
])
def test_diverging_run_stops_where_the_per_record_check_does(case, gamma_pd, dt, message):
    spec = _ladder_spec(4, gamma_pd) if case == "ladder" \
        else tilted_two_level_spec(gamma_pd=gamma_pd)
    rho0 = _coherent_state(spec.dim)
    want = _per_record_failure(spec, rho0, 1000 * dt, dt, 1)
    assert want.startswith(message)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "assembled generator has amplifying modes")
        with pytest.raises(PropagationError) as info:
            propagate(spec, rho0, 1000 * dt, dt, "expm", 1)
    assert str(info.value) == want


def test_coherence_free_start_runs_where_the_coherence_map_overflows():
    # exp(C dt) overflows at gamma_pd = 1e4, dt = 1; a Gibbs start has no
    # coherence for inf * 0 to turn into NaN, so it never builds that map and
    # runs to the end, where a start with one coherence aborts
    spec = _ladder_spec(4, 1e4)
    rho0 = _gibbs_start(spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        traj = propagate(spec, rho0, 1000.0, 1.0, "expm", 1)
    assert [str(w.message).split(" (")[0] for w in caught] == [
        "assembled generator has amplifying modes"]
    assert traj.times[-1] == 1000.0
    states = traj.states
    assert not np.count_nonzero(states - states[:, np.arange(4), np.arange(4), None]
                                * np.eye(4))
    assert traj.trace_dev.max() <= 1e-12 and traj.min_eig.min() >= 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        with pytest.raises(PropagationError, match="NaN/Inf encountered before t=1$"):
            propagate(spec, _one_coherence(rho0), 1000.0, 1.0, "expm", 1)


def test_untracked_coherence_map_may_overflow():
    # gamma_pd = 0.4 damps the coherence (0, 1) (Re C = -0.1) and amplifies
    # (0, 3) (Re C = 3.6), whose exp(C dt) overflows at dt = 200; only the
    # tracked (0, 1) is evaluated, so no inf * 0 turns into NaN
    spec = _ladder_spec(4, 0.4)
    rho0 = _one_coherence(_gibbs_start(spec))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        traj = propagate(spec, rho0, 2000.0, 200.0, "expm", 1)
    assert [str(w.message).split(" (")[0] for w in caught] == [
        "assembled generator has amplifying modes"]
    assert traj.times[-1] == 2000.0
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
            propagate(spec, rho0, 1e12, 1e-3, "expm", 1)
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
    assert propagate(spec, _gibbs_start(spec), 1.0, 0.01, "expm", 1).times.size == 101
    with pytest.raises(ValueError, match="101 records of dim 5 need 8.89e\\+03 bytes"):
        propagate(spec, _one_coherence(_gibbs_start(spec)), 1.0, 0.01, "expm", 1)
    with pytest.raises(ValueError, match="101 records of dim 5 need 2.34e\\+04 bytes"):
        propagate(spec, _coherent_state(spec.dim), 1.0, 0.01, "expm", 1)
    monkeypatch.setattr(sys.modules["ebloch.propagate"], "MAX_RECORD_BYTES", 101 * 88)
    assert propagate(spec, _one_coherence(_gibbs_start(spec)), 1.0, 0.01, "expm", 1)._cohs.shape \
        == (101, 1)
    monkeypatch.setattr(sys.modules["ebloch.propagate"], "MAX_RECORD_BYTES", 101 * 72 - 1)
    with pytest.raises(ValueError, match="over the record limit"):
        propagate(spec, _gibbs_start(spec), 1.0, 0.01, "expm", 1)


@pytest.mark.parametrize("method", ["expm", "rk4"])
def test_coherent_records_take_the_memory_of_their_layout(method):
    # 2,001 records of 32 populations and 496 coherences hold 16.5 MB; a
    # (2001, 32, 32) stack of matrices alone would hold 32.8 MB
    import tracemalloc
    spec = _ladder_spec(32)
    rho0 = _coherent_state(spec.dim)
    spec.compiled.population_eig  # compile and diagonalize outside the traced span
    tracemalloc.start()
    try:
        traj = propagate(spec, rho0, 2.0, 1e-3, method, 1)
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
    traj = propagate(spec, _gibbs_start(spec), 20.0, 1e-3, "expm", 1)
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
    spec = RhsSpec(H, "gkls")
    assert spec.compiled.V is not None
    monkeypatch.setattr(sys.modules["ebloch.propagate"], "MAX_RECORD_BYTES", 200_000)
    traj = propagate(spec, gibbs_state(H, 1.0), 1.0, 1e-3, "expm", 1)
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
    spec = RhsSpec(H, "gkls")
    assert spec.compiled.V is not None
    traj = propagate(spec, _coherent_state(16), 1.0, 1e-3, "expm", 1)
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
