"""Tests for canonical-invariance diagnostics and the reduced thermalization ODE."""

import math
import sys
import warnings

import numpy as np
import pytest

from ebloch.canonical import canonical_experiment, invariance_residual, ratio_profile
from ebloch.dissipators import RhsSpec
from ebloch.propagate import propagate
from ebloch.systems import (
    BathModel,
    LadderSystem,
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


# -------------------------------------------------------- invariance residual

# demo 04's ladder, over beta E in [0.01, 100]
DEMO_N, DEMO_E, DEMO_T = 14, 10.0, 1.0
DEMO_BETAS = np.geomspace(0.01, 100.0, 400) / DEMO_E


def top_population(N, E, betas):
    """p_{N-1}(beta) of the Gibbs family of an equally spaced ladder."""
    p = np.exp(-np.outer(betas, np.arange(N) * E))
    return p[:, -1] / p.sum(axis=1)


def test_invariance_residual_of_the_harmonic_rule_vanishes_below_the_top_level():
    # the truncated top level breaks invariance only where it is populated
    rng = np.random.default_rng(9)
    cases = [(DEMO_N, DEMO_E, DEMO_T, 1.0, DEMO_BETAS)]
    for _ in range(40):
        N, E = int(rng.integers(3, 40)), float(10 ** rng.uniform(-1, 1))
        cases.append((N, E, float(10 ** rng.uniform(-1, 1)), float(10 ** rng.uniform(-3, 3)),
                      np.geomspace(0.01, 100.0, 200) / E))
    for N, E, T, gamma, betas in cases:
        _, residual = invariance_residual(build_oscillator(N, E, "harmonic", BathModel(gamma, T)),
                                          betas)
        empty = top_population(N, E, betas) < 1e-14
        assert residual[empty].max() <= 1e-14


def test_invariance_residual_of_the_constant_rule_is_of_order_one():
    lad = build_oscillator(DEMO_N, DEMO_E, "constant", BathModel(1.0, DEMO_T))
    assert invariance_residual(lad, DEMO_BETAS)[1].max() > 0.1


def test_invariance_rate_of_the_harmonic_rule_is_the_reduced_equation():
    # d ln a / dt = -E dbeta/dt, so lam = -thermalization_ode_rhs(a) / E
    bath = BathModel(1.0, DEMO_T)
    lam, _ = invariance_residual(build_oscillator(DEMO_N, DEMO_E, "harmonic", bath), DEMO_BETAS)
    ref = np.array([-thermalization_ode_rhs(math.exp(-b * DEMO_E), bath, DEMO_E, 1.0) / DEMO_E
                    for b in DEMO_BETAS])
    far = ((np.abs(DEMO_BETAS - 1.0 / DEMO_T) >= 1e-3 / DEMO_T)
           & (top_population(DEMO_N, DEMO_E, DEMO_BETAS) < 1e-14))
    assert far.sum() > 100
    np.testing.assert_allclose(lam[far], ref[far], rtol=1e-12, atol=0.0)


def test_invariance_residual_of_two_levels_vanishes_at_any_rates():
    rng = np.random.default_rng(13)
    for gp, gm in [(0.0, 1.0), (1.0, 0.0), *rng.uniform(0.0, 5.0, (8, 2))]:
        sys2 = TwoLevelSystem(float(rng.uniform(0.1, 10)), (0.6, 0.0, 0.8), float(gp), float(gm))
        assert invariance_residual(sys2, np.linspace(-5.0, 5.0, 41))[1].max() <= 1e-15


def test_invariance_residual_of_an_unequally_spaced_thermal_ladder_is_of_order_one():
    # detailed balance on every rung fixes the bath Gibbs state, but not the family
    rungs = [(0, 1, *rates_from_bath(BathModel(1.0, 1.0), 1.0)),
             (1, 2, *rates_from_bath(BathModel(2.0, 1.0), 1.5))]
    lad = LadderSystem((0.0, 1.0, 2.5), rungs)
    assert invariance_residual(lad, np.geomspace(0.01, 10.0, 300))[1].max() > 0.1


@pytest.mark.parametrize("scale", [1e-12, 1e12])
def test_invariance_residual_does_not_depend_on_the_units(scale):
    # the residual is a difference of near-parallel vectors where it is
    # small, so it is compared on the scale of its largest value
    bath = BathModel(1.0, DEMO_T)
    lam, residual = invariance_residual(build_oscillator(DEMO_N, DEMO_E, "constant", bath),
                                        DEMO_BETAS)
    fast = build_oscillator(DEMO_N, DEMO_E, "constant", BathModel(scale, DEMO_T))
    wide = build_oscillator(DEMO_N, DEMO_E * scale, "constant", BathModel(1.0, DEMO_T * scale))
    for sys_, betas, lam_unit in [(fast, DEMO_BETAS, scale),
                                  (wide, DEMO_BETAS / scale, 1 / scale)]:
        lam_s, residual_s = invariance_residual(sys_, betas)
        assert np.abs(residual_s - residual).max() <= 1e-14 * residual.max()
        np.testing.assert_allclose(lam_s, lam * lam_unit, rtol=1e-12, atol=0.0)


def test_invariance_residual_refuses_a_ladder_without_rates():
    with pytest.raises(ValueError, match="every rate is zero"):
        invariance_residual(LadderSystem((0.0, 1.0, 2.0), [(0, 1, 0.0, 0.0), (1, 2, 0.0, 0.0)]),
                            1.0)


def test_invariance_residual_is_nan_where_the_tangent_underflows():
    # at beta E = 1e4 every excited population, and so d, is exactly zero;
    # pytest turns a RuntimeWarning into an error
    lad = build_oscillator(DEMO_N, DEMO_E, "harmonic", BathModel(1.0, DEMO_T))
    lam, residual = invariance_residual(lad, [1e3, 1.0 / DEMO_T])
    assert math.isnan(lam[0]) and math.isnan(residual[0])
    assert residual[1] <= 1e-15 and np.shape(invariance_residual(lad, 0.5)[0]) == ()


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
