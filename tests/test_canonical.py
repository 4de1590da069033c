"""Tests for canonical-invariance diagnostics and the reduced thermalization ODE."""

import math
import sys
import warnings

import numpy as np
import pytest

from ebloch.canonical import canonical_experiment, invariance_condition, ratio_profile
from ebloch.dissipators import RhsSpec
from ebloch.propagate import propagate
from ebloch.systems import (
    BathModel,
    TwoLevelSystem,
    build_oscillator,
    fermi,
    rates_from_bath,
)

from oracles import uniformization


# -------------------------------------------------------------- ratio_profile


def test_ratio_profile_geometric_is_constant():
    a = 0.4
    p = a ** np.arange(6)
    p /= p.sum()
    np.testing.assert_allclose(ratio_profile(p), np.log(a) * np.ones(5), rtol=1e-12)


def test_ratio_profile_gibbs_ladder():
    E, T = 1.3, 0.8
    p = np.exp(-E * np.arange(5) / T)
    p /= p.sum()
    np.testing.assert_allclose(ratio_profile(p), -E / T * np.ones(4), rtol=1e-12)


def test_ratio_profile_scalar_example():
    got = ratio_profile(np.array([0.5, 0.3, 0.2]))
    np.testing.assert_allclose(got, [np.log(0.6), np.log(2 / 3)], rtol=1e-14)


def test_ratio_profile_floor_marks_entries_absent():
    p = np.array([0.7, 0.3 - 1e-15, 1e-16, 0.0])
    p = p / p.sum()
    r = ratio_profile(p)
    assert np.isfinite(r[0])
    assert np.isnan(r[1]) and np.isnan(r[2])


def test_ratio_profile_rejects_bad_input():
    with pytest.raises(ValueError, match="negative population"):
        ratio_profile(np.array([1.1, -0.1]))
    with pytest.raises(ValueError, match="sum to 1"):
        ratio_profile(np.array([0.5, 0.4]))


def test_ratio_profile_stack_matches_rows_nan_pattern_included():
    rng = np.random.default_rng(5)
    p = rng.exponential(size=(30, 7)) * np.exp(-rng.uniform(0.0, 40.0, (30, 7)))
    p[3] = np.eye(7)[0]  # no pair above the floor: an all-NaN row
    p /= p.sum(axis=1, keepdims=True)
    stacked = ratio_profile(p)
    rows = np.array([ratio_profile(row) for row in p])
    np.testing.assert_array_equal(np.isnan(stacked), np.isnan(rows))
    np.testing.assert_array_equal(stacked, rows)
    assert np.isnan(stacked).any() and not np.isnan(stacked).all()
    assert np.isnan(stacked[3]).all()


def test_ratio_profile_stack_rejects_any_bad_row():
    p = np.full((4, 3), 1.0 / 3.0)
    negative, unnormalized = p.copy(), p.copy()
    negative[2] = [1.1, -0.1, 0.0]
    unnormalized[3] = [0.5, 0.4, 0.0]
    with pytest.raises(ValueError, match="negative population"):
        ratio_profile(negative)
    with pytest.raises(ValueError, match="sum to 1 within 1e-9, got 0.9"):
        ratio_profile(unnormalized)
    for shape in ((2, 2, 2), (3, 1), (1,)):
        with pytest.raises(ValueError, match="at least two entries"):
            ratio_profile(np.ones(shape) / shape[-1])


# ------------------------------------------------------------ delta parameter


def delta_parameter(a: float, bath: BathModel, E: float) -> float:
    """Mismatch delta with a = (f/(1-f)) e^delta, i.e. delta = ln(a(1-f)/f).

    Zero exactly when a equals the bath Gibbs ratio exp(-E/T).
    """
    if not (a > 0.0):
        raise ValueError(f"a must be positive, got {a}")
    f = fermi(E, bath.T)
    return float(math.log(a) + math.log1p(-f) - math.log(f))


def test_delta_zero_at_bath_equilibrium():
    bath = BathModel(1.0, 1.7)
    E = 1.1
    f = fermi(E, bath.T)
    assert delta_parameter(f / (1 - f), bath, E) == pytest.approx(0.0, abs=1e-14)
    assert delta_parameter(math.exp(-E / bath.T), bath, E) == pytest.approx(0.0, abs=1e-14)


def test_delta_unit_offset_by_construction():
    bath = BathModel(1.0, 0.9)
    E = 1.4
    f = fermi(E, bath.T)
    assert delta_parameter(math.e * f / (1 - f), bath, E) == pytest.approx(1.0, rel=1e-12)


def test_delta_scalar_example():
    # E = T = 1: (1-f)/f = e, so delta(a=0.5) = ln(0.5 e)
    bath = BathModel(1.0, 1.0)
    assert delta_parameter(0.5, bath, 1.0) == pytest.approx(math.log(0.5 * math.e), rel=1e-12)
    with pytest.raises(ValueError, match="positive"):
        delta_parameter(0.0, bath, 1.0)


# -------------------------------------------------------- invariance condition


def test_invariance_condition_harmonic_holds():
    for n in range(2, 9):
        holds, defects = invariance_condition([(i + 1) * 0.7 for i in range(n)])
        assert holds
        np.testing.assert_allclose(defects, 0.0, atol=1e-15)


def test_invariance_condition_constant_fails():
    holds, defects = invariance_condition([0.7, 0.7, 0.7])
    assert not holds
    np.testing.assert_allclose(defects, [-0.7, -0.7], rtol=1e-15)


def test_invariance_condition_single_defect():
    holds, defects = invariance_condition([1.0, 2.0, 3.0, 4.5])
    assert not holds
    np.testing.assert_allclose(defects, [0.0, 0.0, 0.5], atol=1e-15)


# ----------------------------------------------------------- thermalization ODE


def thermalization_ode_rhs(a: float, bath: BathModel, E: float, gamma0: float) -> float:
    """d ln a / dt = gamma0 (a(1-f) + f/a - 1).

    Zero exactly at a = f/(1-f) = exp(-E/T); for 0 < a < 1 the sign drives
    a toward that bath value.
    """
    if not (a > 0.0):
        raise ValueError(f"a must be positive, got {a}")
    if not (gamma0 > 0.0):
        raise ValueError(f"gamma0 must be positive, got {gamma0}")
    f = fermi(E, bath.T)
    return float(gamma0 * (a * (1.0 - f) + f / a - 1.0))


def test_thermalization_rhs_zero_at_bath_ratio():
    bath = BathModel(1.0, 1.0)
    E = 1.0
    f = fermi(E, bath.T)
    assert thermalization_ode_rhs(f / (1 - f), bath, E, 1.3) == pytest.approx(0.0, abs=1e-15)


def test_thermalization_rhs_signs_drive_toward_equilibrium():
    bath = BathModel(1.0, 1.0)
    E = 1.0
    a_star = math.exp(-E / bath.T)
    for a in (0.05, 0.2, 0.9 * a_star):
        assert thermalization_ode_rhs(a, bath, E, 1.0) > 0
    for a in (1.1 * a_star, 0.6, 0.9):
        assert thermalization_ode_rhs(a, bath, E, 1.0) < 0


def test_thermalization_rhs_scalar_example():
    bath = BathModel(1.0, 1.0)
    f = 1 / (math.e + 1)
    expected = 0.1 * (1 - f) + f / 0.1 - 1
    assert thermalization_ode_rhs(0.1, bath, 1.0, 1.0) == pytest.approx(expected, rel=1e-14)
    # gamma0 scales linearly
    assert thermalization_ode_rhs(0.1, bath, 1.0, 2.5) == pytest.approx(2.5 * expected, rel=1e-14)


# ------------------------------------------------------------------ lambda ODE


def lambda_ode_rhs(lam: float, sys: TwoLevelSystem) -> float:
    """Two-level Gibbs-form dynamics: d lambda/dt = -(gp+gm) lambda + (gp-gm).

    lambda parametrizes rho = 1/2 + lambda H/E; the fixed point
    lambda* = (gp-gm)/(gp+gm) reproduces the analytic stationary state.
    """
    return -sys.gamma_sum * lam + sys.gamma_diff


def test_lambda_rhs_fixed_point_matches_stationary_state():
    sys2 = TwoLevelSystem(1.0, (0, 0, 1), 0.3, 1.1)
    lam_star = sys2.gamma_diff / sys2.gamma_sum
    assert lambda_ode_rhs(lam_star, sys2) == pytest.approx(0.0, abs=1e-15)
    assert lambda_ode_rhs(0.0, TwoLevelSystem(1.0, (0, 0, 1), 0.7, 0.7)) == 0.0
    assert lambda_ode_rhs(1.0, TwoLevelSystem(1.0, (0, 0, 1), 0.0, 0.6)) == pytest.approx(-1.2)


def test_two_level_lambda_dynamics_match_closed_form():
    gp, gm = rates_from_bath(BathModel(1.0, 1.0), 1.3)
    sys2 = TwoLevelSystem(1.3, (0.0, 0.6, 0.8), gp, gm)
    lam0 = -0.6
    rho0 = 0.5 * np.eye(2) + (lam0 / sys2.E) * sys2.hamiltonian
    traj = propagate(RhsSpec.for_system(sys2), rho0, 5.0, 0.01, 10)
    lam_star = sys2.gamma_diff / sys2.gamma_sum
    H = sys2.hamiltonian
    lam_fit = np.array([2.0 * np.trace(s @ H).real / sys2.E for s in traj.states])
    lam_ref = lam_star + (lam0 - lam_star) * np.exp(-sys2.gamma_sum * traj.times)
    assert np.abs(lam_fit - lam_ref).max() <= 1e-8


# ---------------------------------------------------------------- experiment


def test_canonical_experiment_harmonic_stays_canonical():
    sys_h = build_oscillator(8, 13.0, "harmonic", BathModel(1.0, 1.0))
    diag = canonical_experiment(sys_h, T0=2.0, t_final=3.0, dt=1e-3, record_every=30)
    assert diag.clean.all()
    assert np.nanmax(diag.max_nonuniformity[diag.clean]) <= 1e-8
    assert diag.ode_mismatch <= 1e-8
    # delta shrinks toward 0 as the ladder cools to the bath temperature
    finite = np.isfinite(diag.delta_series)
    assert abs(diag.delta_series[finite][-1]) < abs(diag.delta_series[finite][0])


def test_canonical_experiment_records_populations_only():
    # the criterion-6 quench: 1,201 records of a 14-level ladder.  Its Gibbs
    # start has no coherences, so the run keeps 1,201 x 14 populations
    # (134 KB) instead of 1,201 dense 14 x 14 complex states (3.77 MB), and
    # the traced peak of the whole experiment stays below 1.5 MB
    import tracemalloc
    sys_h = build_oscillator(14, 10.0, "harmonic", BathModel(1.0, 1.0))
    canonical_experiment(sys_h, T0=2.0, t_final=0.1, dt=1e-3, record_every=25)  # warm-up
    tracemalloc.start()
    try:
        diag = canonical_experiment(sys_h, T0=2.0, t_final=30.0, dt=1e-3, record_every=25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag.times.shape == (1201,)
    assert peak <= 1_500_000, f"canonical_experiment peaked at {peak / 1e6:.2f} MB"


def test_canonical_experiment_row_statistics_match_a_per_row_loop():
    # the tail of this ladder lies below the population floor, so rows carry NaNs
    sys_h = build_oscillator(8, 13.0, "harmonic", BathModel(1.0, 1.0))
    diag = canonical_experiment(sys_h, T0=2.0, t_final=0.5, dt=1e-3, record_every=10)
    assert np.isnan(diag.ratio_profiles).any()
    means, nonunif = [], []
    for r in diag.ratio_profiles:
        valid = ~np.isnan(r)
        means.append(r[valid].mean())
        nonunif.append(np.abs(r[valid] - means[-1]).max())
    np.testing.assert_allclose(diag.mean_ratio, means, rtol=1e-15, atol=0)
    np.testing.assert_allclose(diag.max_nonuniformity, nonunif, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(diag.a_series, np.exp(diag.mean_ratio))


def test_canonical_experiment_constant_rule_breaks_canonical_form():
    sys_c = build_oscillator(8, 13.0, "constant", BathModel(1.0, 1.0))
    diag = canonical_experiment(sys_c, T0=2.0, t_final=3.0, dt=1e-3, record_every=30)
    assert np.nanmax(diag.max_nonuniformity[diag.clean]) > 1e-3


def test_canonical_experiment_at_bath_temperature_is_static():
    # starting at the fixed point, profiles stay flat for any coupling rule
    for rule in ("harmonic", "constant"):
        sys_l = build_oscillator(8, 13.0, rule, BathModel(1.0, 1.0))
        diag = canonical_experiment(sys_l, T0=1.0, t_final=1.0, dt=1e-3, record_every=50)
        finite = np.isfinite(diag.mean_ratio)
        assert np.abs(diag.mean_ratio[finite] + 13.0).max() <= 1e-9
        assert np.abs(np.diff(diag.a_series[finite])).max() <= 1e-10
        assert np.nanmax(diag.max_nonuniformity[finite]) <= 1e-9


@pytest.mark.parametrize("T0", [0.5, 0.3])
def test_canonical_experiment_cold_quench_matches_exact_reduced_solution(T0):
    # a0 = exp(-E/T0) is far below the bath ratio, where a fixed-step
    # integration of d ln a/dt (rate ~ f/a) is stiff or overflows
    lad = build_oscillator(14, 10.0, "harmonic", BathModel(1.0, 1.0))
    diag = canonical_experiment(lad, T0=T0, t_final=3.0, dt=1e-3, record_every=25)
    assert diag.ode_mismatch <= 1e-8


def test_canonical_experiment_underflowing_start_ratio_stays_finite():
    E, T0 = 10.0, 0.01  # exp(-E/T0) = exp(-1000) underflows to 0
    lad = build_oscillator(14, E, "harmonic", BathModel(1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diag = canonical_experiment(lad, T0=T0, t_final=3.0, dt=1e-3, record_every=25)
    assert diag.lna_ode[0] == pytest.approx(-E / T0, rel=1e-15)
    assert np.isfinite(diag.lna_ode).all()


@pytest.mark.parametrize("T0", [math.inf, math.nan, 0.0, -1.0])
def test_canonical_experiment_requires_a_finite_positive_start_temperature(T0):
    # from T0 = inf the reduced equation starts on its unstable fixed point
    # a0 = 1 and stays there while the ladder relaxes toward the bath
    lad = build_oscillator(14, 10.0, "harmonic", BathModel(1.0, 1.0))
    with pytest.raises(ValueError, match="T0 must be a finite positive temperature"):
        canonical_experiment(lad, T0=T0, t_final=3.0, dt=1e-3, record_every=25)


def test_canonical_experiment_rejects_non_ladder_systems():
    from ebloch.systems import LadderSystem

    skip = LadderSystem((0.0, 1.0, 2.0), [(0, 2, 0.2, 0.8)])
    with pytest.raises(ValueError, match="nearest-neighbour"):
        canonical_experiment(skip, 2.0, 1.0, 1e-2)


def test_canonical_experiment_spacing_check_is_relative_to_the_spacing():
    from ebloch.systems import LadderSystem

    rungs = [(0, 1, 0.2, 0.8), (1, 2, 0.2, 0.8)]
    unequal = LadderSystem((0.0, 1e-10, 6e-10), rungs)
    with pytest.raises(ValueError, match="equal level spacing"):
        canonical_experiment(unequal, 1e-10, 1.0, 0.1)
    equal = LadderSystem((0.0, 1e-10, 2e-10), rungs)
    diag = canonical_experiment(equal, 1e-10, 1.0, 0.1)
    assert np.isfinite(diag.mean_ratio).all()


@pytest.mark.parametrize("mu", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_canonical_experiment_spacing_verdict_holds_at_any_energy_scale(mu):
    from ebloch.systems import LadderSystem

    rungs = [(0, 1, 0.2, 0.8), (1, 2, 0.2, 0.8)]
    unequal = LadderSystem((0.0, mu, mu * (2.0 + 1e-8)), rungs)
    with pytest.raises(ValueError, match="equal level spacing"):
        canonical_experiment(unequal, mu, 1.0, 0.1)
    equal = LadderSystem((0.0, mu, mu * (2.0 + 1e-10)), rungs)
    diag = canonical_experiment(equal, mu, 1.0, 0.1)
    assert np.isfinite(diag.mean_ratio).all()


# ------------------------------------------------------------ the exact flow


def _worst_relative_population_error(monkeypatch, lad, T0, t_final, dt, record_every):
    """Largest relative deviation of any population that canonical_experiment
    records from the uniformization series of the ladder's rate matrix."""
    runs = []

    def recorded(*args, **kwargs):
        runs.append(propagate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(sys.modules["ebloch.canonical"], "propagate", recorded)
    canonical_experiment(lad, T0, t_final, dt, record_every=record_every)
    pops = runs[-1].populations()
    ref = uniformization(RhsSpec.for_system(lad).compiled.W, pops[0], runs[-1].times)
    assert ref.min() > 0.0
    return float(np.abs(pops / ref - 1.0).max())


def test_canonical_experiment_populations_match_uniformization_on_the_criterion_6_ladder(
        monkeypatch):
    # 1,201 records whose smallest populations fall to 3.5e-57; RK4 at
    # dt = 1e-3 errs there by about 1e-9 relative
    lad = build_oscillator(14, 10.0, "harmonic", BathModel(1.0, 1.0))
    assert _worst_relative_population_error(monkeypatch, lad, 2.0, 30.0, 1e-3, 25) <= 1e-12


def test_canonical_experiment_populations_match_uniformization_on_random_oscillators(
        monkeypatch):
    rng = np.random.default_rng(2121)
    for n in range(12):
        N = int(rng.integers(3, 17))
        coupling = ("harmonic", "constant", rng.uniform(0.2, 3.0, N - 1).tolist())[n % 3]
        bath = BathModel(float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.5, 3.0)))
        lad = build_oscillator(N, float(rng.uniform(0.5, 6.0)), coupling, bath)
        T0, t_final = float(rng.uniform(0.3, 4.0)), float(rng.uniform(1.0, 10.0))
        worst = _worst_relative_population_error(monkeypatch, lad, T0, t_final, 0.01,
                                                 int(rng.integers(1, 20)))
        assert worst <= 1e-12, (n, worst)



def test_canonical_experiment_takes_no_eigenvalues_of_w(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("canonical_experiment diagonalized W")

    monkeypatch.setattr(np.linalg, "eig", refuse)
    lad = build_oscillator(14, 10.0, "harmonic", BathModel(1.0, 1.0))
    diag = canonical_experiment(lad, T0=2.0, t_final=3.0, dt=1e-3, record_every=25)
    assert diag.ode_mismatch <= 1e-8
