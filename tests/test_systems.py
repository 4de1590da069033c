"""Tests for system builders, jump operators and bath rate models."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from ebloch.linalg import eigenbasis
from ebloch.systems import (
    BathModel,
    JumpOperatorPair,
    LadderSystem,
    TwoLevelSystem,
    build_oscillator,
    build_two_level_hamiltonian,
    fermi,
    jump_operators,
    rates_from_bath,
    verify_jump_algebra,
)
from oracles import commutator, transition_projector


def random_direction(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- Hamiltonian


def test_hamiltonian_pure_sigma_z():
    np.testing.assert_allclose(
        build_two_level_hamiltonian(2.0, (0, 0, 1)), np.diag([1.0, -1.0]), atol=1e-15
    )


def test_hamiltonian_sigma_x_eigenvalues():
    H = build_two_level_hamiltonian(1.0, (1, 0, 0))
    np.testing.assert_allclose(H, 0.5 * np.array([[0, 1], [1, 0]]), atol=1e-15)
    np.testing.assert_allclose(np.linalg.eigvalsh(H), [-0.5, 0.5], atol=1e-15)


def test_hamiltonian_trace_and_gap():
    rng = np.random.default_rng(10)
    for _ in range(50):
        E = rng.uniform(0.1, 8.0)
        H = build_two_level_hamiltonian(E, random_direction(rng))
        assert abs(np.trace(H)) <= 1e-12 * E
        w = np.linalg.eigvalsh(H)
        assert w[1] - w[0] == pytest.approx(E, abs=1e-12 * E)


def test_hamiltonian_rejects_bad_input():
    with pytest.raises(ValueError, match="positive"):
        build_two_level_hamiltonian(0.0, (0, 0, 1))
    with pytest.raises(ValueError, match="nonzero"):
        build_two_level_hamiltonian(1.0, (0, 0, 0))
    with pytest.raises(ValueError, match="unit length"):
        build_two_level_hamiltonian(1.0, (0, 0, 1.001))


def test_two_level_system_normalizes_eps():
    sys2 = TwoLevelSystem(1.0, (0.6, 0.0, 0.8 + 1e-10))
    assert np.linalg.norm(sys2.eps) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        TwoLevelSystem(1.0, (0, 0, 1), gamma_p=-0.1)


EDGE_AXES = [(0.0, 0.0, 1.0), (-0.0, 0.0, 1.0), (5e-324, 0.0, 1.0), (0.0, 0.0, -1.0)]


def test_two_level_transitions_follow_the_eigenbasis_order():
    # the rule a spec compiled by before two-level systems had transitions:
    # one row from argsort(E)[0] to argsort(E)[1], E of eigenbasis(H)
    rng = np.random.default_rng(41)
    axes = EDGE_AXES + [tuple(random_direction(rng)) for _ in range(200)]
    for k, eps in enumerate(axes):
        sys2 = TwoLevelSystem(1.0 if k < 4 else float(rng.uniform(0.2, 5.0)), eps, 0.3, 0.7)
        E, _ = eigenbasis(sys2.hamiltonian)
        ii, jj, gp, gm = sys2.transitions
        assert (ii.tolist(), jj.tolist()) == ([int(np.argsort(E)[0])], [int(np.argsort(E)[1])])
        assert (gp.tolist(), gm.tolist()) == ([0.3], [0.7])
        assert ii.dtype == jj.dtype == np.intp and not any(a.flags.writeable for a in (ii, jj, gp, gm))
        half = 0.5 * sys2.E
        assert sorted(sys2.energies) == [-half, half]
        np.testing.assert_allclose(sys2.energies, E, rtol=0.0, atol=1e-15 * sys2.E)
        if k < 3:  # exactly diagonal H (at E = 1, 5e-324 underflows): descending
            assert sys2.energies == (half, -half) and (ii[0], jj[0]) == (1, 0)
    # at E = 2.5 the 5e-324 axis leaves H dense: ascending
    assert TwoLevelSystem(2.5, EDGE_AXES[2]).energies == (-1.25, 1.25)


def test_jump_operators_degeneracy_test_is_relative_to_the_levels():
    for E in (1e-13, 1e-200):
        for eps in ((0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (0.48, 0.36, 0.8)):
            H = build_two_level_hamiltonian(E, eps)
            assert verify_jump_algebra(jump_operators(H), H, E).passed


# ------------------------------------------------------------- jump operators


def test_jump_operators_sigma_z_basis():
    H = build_two_level_hamiltonian(1.7, (0, 0, 1))
    pair = jump_operators(H)
    np.testing.assert_allclose(pair.sigma_p, [[0, 1], [0, 0]], atol=1e-14)
    np.testing.assert_allclose(pair.sigma_m, [[0, 0], [1, 0]], atol=1e-14)


def test_jump_operators_sigma_x_basis():
    H = build_two_level_hamiltonian(1.0, (1, 0, 0))
    pair = jump_operators(H)
    np.testing.assert_allclose(pair.sigma_p, 0.5 * np.array([[1, -1], [1, -1]]), atol=1e-14)
    np.testing.assert_allclose(pair.sigma_p @ pair.sigma_p, np.zeros((2, 2)), atol=1e-14)


def test_jump_operators_commutator_scaling():
    rng = np.random.default_rng(11)
    for _ in range(100):
        E = rng.uniform(0.2, 5.0)
        H = build_two_level_hamiltonian(E, random_direction(rng))
        pair = jump_operators(H)
        np.testing.assert_allclose(
            commutator(pair.sigma_p, pair.sigma_m), 2 * H / E, atol=1e-12
        )
        assert np.abs(pair.sigma_m - pair.sigma_p.conj().T).max() <= 1e-15


def test_jump_operators_reject_bad_hamiltonians():
    with pytest.raises(ValueError, match="traceless"):
        jump_operators(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="degenerate"):
        jump_operators(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="2x2"):
        jump_operators(np.diag([1.0, 0.0, -1.0]))


def test_verify_jump_algebra_canonical_pair():
    H = build_two_level_hamiltonian(1.0, (0, 0, 1))
    report = verify_jump_algebra(jump_operators(H), H, 1.0)
    assert report.passed
    assert report.max_residual <= 1e-14


def test_verify_jump_algebra_detects_rescaled_pair():
    # doubling the pair: [2sp, 2sm] = 8H/E, residual ||8H/E - 2H/E|| = 3 ||2H/E||
    E = 1.4
    H = build_two_level_hamiltonian(E, (0.6, 0, 0.8))
    pair = jump_operators(H)
    from ebloch.systems import JumpOperatorPair

    bad = JumpOperatorPair(2 * pair.sigma_p, 2 * pair.sigma_m)
    report = verify_jump_algebra(bad, H, E)
    assert not report.passed
    expected_comm = np.linalg.norm(
        (2 * pair.sigma_p) @ (2 * pair.sigma_m)
        - (2 * pair.sigma_m) @ (2 * pair.sigma_p)
        - 2 * H / E
    )
    assert report.comm == pytest.approx(expected_comm, rel=1e-12)
    assert report.comm == pytest.approx(3 * np.linalg.norm(2 * H / E), rel=1e-12)
    assert report.sq_p == pytest.approx(0.0, abs=1e-13)
    assert report.eigenop == pytest.approx(0.0, abs=1e-13)


def test_jump_algebra_randomized_property():
    rng = np.random.default_rng(12)
    for _ in range(200):
        E = rng.uniform(0.2, 5.0)
        H = build_two_level_hamiltonian(E, random_direction(rng))
        assert verify_jump_algebra(jump_operators(H), H, E).passed


# ---------------------------------------------------- stacked jump operators

AXES = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (-1.0, 0.0, 0.0)]
tilted_draws = st.lists(
    st.tuples(st.floats(0.2, 5.0), st.one_of(
        st.sampled_from(AXES),
        st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1))),
    min_size=1, max_size=9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tilted_draws)
def test_jump_algebra_on_a_stack_equals_per_matrix_calls(draws):
    E = np.array([e for e, _ in draws])
    H = np.stack([build_two_level_hamiltonian(e, np.array(v) / np.linalg.norm(v))
                  for e, v in draws])
    pair = jump_operators(H)
    report = verify_jump_algebra(pair, H, E)
    assert pair.sigma_p.shape == pair.sigma_m.shape == H.shape
    assert report.max_residual.shape == report.passed.shape == (len(draws),)
    for k in range(len(draws)):
        single = jump_operators(H[k])
        assert np.abs(pair.sigma_p[k] - single.sigma_p).max() <= 1e-14
        assert np.abs(pair.sigma_m[k] - single.sigma_m).max() <= 1e-14
        rep_k = verify_jump_algebra(single, H[k], E[k])
        for name, value in rep_k.residuals().items():
            assert abs(report.residuals()[name][k] - value) <= 1e-14
        assert report.passed[k] == rep_k.passed


@pytest.mark.parametrize("bad, message", [
    (np.array([[0.5, 1.0], [0.0, -0.5]]), "not Hermitian"),
    (np.diag([1.0, 0.0]), "traceless"),
    (np.zeros((2, 2)), "degenerate"),
])
def test_jump_operators_stack_with_one_bad_member_raises_like_the_single_call(bad, message):
    with pytest.raises(ValueError) as single:
        jump_operators(bad)
    assert message in str(single.value)
    good = build_two_level_hamiltonian(1.3, (0.6, 0.0, 0.8))
    with pytest.raises(ValueError) as stacked:
        jump_operators(np.stack([good, bad, good]))
    assert str(stacked.value) == str(single.value)


@pytest.mark.parametrize("shape", [(2,), (3, 3), (4, 2, 3), (2, 3, 2), (1, 2, 2, 2)])
def test_stacked_jump_algebra_rejects_wrong_trailing_shapes(shape):
    with pytest.raises(ValueError, match="2x2"):
        jump_operators(np.zeros(shape))
    with pytest.raises(ValueError, match="2x2"):
        JumpOperatorPair(np.zeros(shape), np.zeros(shape))
    H = build_two_level_hamiltonian(1.0, (0.0, 0.0, 1.0))
    pair = jump_operators(np.stack([H, H]))
    with pytest.raises(ValueError, match="mismatched"):
        verify_jump_algebra(pair, H, 1.0)


# ------------------------------------------------------------------ bath model


def test_fermi_values():
    assert fermi(0.0, 2.3) == pytest.approx(0.5, abs=1e-15)
    assert fermi(1.0, 1.0) == pytest.approx(1 / (np.e + 1), rel=1e-14)
    assert fermi(800.0, 1.0) == 0.0
    assert fermi(-800.0, 1.0) == 1.0
    with pytest.raises(ValueError, match="positive temperature"):
        fermi(1.0, 0.0)


def test_fermi_matches_expit_bit_for_bit():
    # exp overflows just above log(DBL_MAX) = 709.78...; step ulp by ulp across it
    edge = float(np.log(np.finfo(float).max))
    near = edge + np.arange(-500, 501) * np.spacing(edge)
    ratios = np.concatenate([np.linspace(-800.0, 800.0, 16001), near, -near,
                             [0.0, -0.0, 709.8, -709.8, -746.0, 1e300, -1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for T in (0.37, 1.0, 4.0):
            for x in ratios.tolist():
                E = x * T
                assert fermi(E, T) == float(scipy.special.expit(-E / T)), (E, T)


def test_rates_from_bath_values():
    gp, gm = rates_from_bath(BathModel(2.0, 1.0), 1.0)
    assert gp == pytest.approx(2 / (np.e + 1), rel=1e-14)
    assert gm == pytest.approx(2 * np.e / (np.e + 1), rel=1e-14)


def test_rates_from_bath_infinite_temperature_limit():
    gp, gm = rates_from_bath(BathModel(1.0, 1e12), 1.0)
    assert gp == pytest.approx(0.5, abs=1e-12)
    assert gm == pytest.approx(0.5, abs=1e-12)


def test_rates_sum_is_exactly_gamma():
    # gamma_m is constructed as gamma - gamma_p; the recomposed sum is exact
    # on these grids and never off by more than one ulp for arbitrary input
    for gamma in (1.0, 2.0, 0.7, 3.25):
        for E, T in ((1.0, 1.0), (0.5, 2.0), (4.0, 0.5)):
            gp, gm = rates_from_bath(BathModel(gamma, T), E)
            assert gp + gm == gamma
    rng = np.random.default_rng(13)
    for _ in range(200):
        gamma = float(rng.uniform(0.1, 5.0))
        gp, gm = rates_from_bath(BathModel(gamma, float(rng.uniform(0.1, 5.0))),
                                 float(rng.uniform(0.1, 5.0)))
        assert abs(gp + gm - gamma) <= np.finfo(float).eps * gamma


def test_rates_detailed_balance():
    rng = np.random.default_rng(14)
    for _ in range(100):
        E = float(rng.uniform(0.1, 5.0))
        T = float(rng.uniform(0.1, 5.0))
        gp, gm = rates_from_bath(BathModel(1.7, T), E)
        assert gp / gm == pytest.approx(np.exp(-E / T), rel=1e-13)


# -------------------------------------------------------------------- ladders


def test_build_oscillator_harmonic_table():
    lad = build_oscillator(4, 1.0, "harmonic", BathModel(0.7, 1.0))
    _, _, gp, gm = lad.transitions
    np.testing.assert_allclose(gp + gm, [0.7, 1.4, 2.1], rtol=1e-14)
    np.testing.assert_allclose(lad.energies, [0, 1, 2, 3])


def test_build_oscillator_constant_table():
    lad = build_oscillator(4, 1.0, "constant", BathModel(0.7, 1.0))
    _, _, gp, gm = lad.transitions
    np.testing.assert_allclose(gp + gm, [0.7] * 3, rtol=1e-14)


def test_build_oscillator_two_levels_matches_two_level_rates():
    bath = BathModel(1.3, 0.9)
    lad = build_oscillator(2, 1.1, "harmonic", bath)
    gp, gm = rates_from_bath(bath, 1.1)
    _, _, lad_gp, lad_gm = lad.transitions
    assert (lad_gp[0], lad_gm[0]) == (gp, gm)


def test_build_oscillator_explicit_table_and_errors():
    lad = build_oscillator(4, 1.0, [0.5, 1.5, 2.5], BathModel(1.0, 1.0))
    _, _, gp, gm = lad.transitions
    np.testing.assert_allclose(gp + gm, [0.5, 1.5, 2.5])
    with pytest.raises(ValueError, match="3 entries"):
        build_oscillator(4, 1.0, [1.0], BathModel(1.0, 1.0))
    with pytest.raises(ValueError, match="non-negative"):
        build_oscillator(3, 1.0, [1.0, -0.5], BathModel(1.0, 1.0))
    with pytest.raises(ValueError, match="unknown coupling rule"):
        build_oscillator(3, 1.0, "quadratic", BathModel(1.0, 1.0))


def test_ladder_stores_its_energies_and_one_transition_table():
    lad = LadderSystem((0.0, 2.5, 1.0), [(0, 2, 0.5, 1.5), (2, 1, 0.25, 0.75)])
    assert [f.name for f in dataclasses.fields(lad)] == ["energies", "transitions"]
    assert lad.N == 3 and lad.energies == (0.0, 2.5, 1.0)
    ii, jj, gp, gm = lad.transitions
    # rows are kept in the order given; energies need not be monotone
    assert (ii.tolist(), jj.tolist()) == ([0, 2], [2, 1])
    assert (gp.tolist(), gm.tolist()) == ([0.5, 0.25], [1.5, 0.75])
    assert ii.dtype == np.intp and gp.dtype == float
    for a in lad.transitions:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


# (energies, transition rows, the ValueError message); the CLI's explicit
# system reports the same message under [system]
INVALID_LADDERS = {
    "one level": ((0.0,), [(0, 1, 0.5, 1.0)], "a ladder needs at least two levels"),
    "nan energy": ((0.0, np.nan), [(0, 1, 0.5, 1.0)], "energy of level 1 must be finite, got nan"),
    "index out of range": ((0.0, 1.0), [(0, 5, 0.5, 1.0)],
                           "transition (0, 5) out of range for N=2"),
    "negative index": ((0.0, 1.0), [(-1, 1, 0.5, 1.0)],
                       "transition (-1, 1) out of range for N=2"),
    "i == j": ((0.0, 1.0), [(1, 1, 0.5, 1.0)], "transition (1, 1) needs two distinct levels"),
    "pair in both orientations": ((0.0, 1.0), [(0, 1, 0.5, 1.0), (1, 0, 0.5, 1.0)],
                                  "transition (1, 0) repeats the pair (0, 1)"),
    "negative rate": ((0.0, 1.0), [(0, 1, -0.5, 1.0)],
                      "transition (0, 1) gamma_p must be a finite non-negative rate, got -0.5"),
    "nan rate": ((0.0, 1.0), [(0, 1, 0.5, np.nan)],
                 "transition (0, 1) gamma_m must be a finite non-negative rate, got nan"),
    "infinite rate": ((0.0, 1.0), [(0, 1, np.inf, 1.0)],
                      "transition (0, 1) gamma_p must be a finite non-negative rate, got inf"),
    "zero gap": ((1.0, 1.0), [(0, 1, 0.5, 1.0)],
                 "transition (0, 1) needs level 1 above level 0, got gap 0.0"),
    "negative gap": ((0.0, 1.0), [(1, 0, 0.5, 1.0)],
                     "transition (1, 0) needs level 0 above level 1, got gap -1.0"),
}


@pytest.mark.parametrize("case", INVALID_LADDERS)
def test_ladder_rejects_invalid_input(case):
    energies, rows, message = INVALID_LADDERS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LadderSystem(energies, rows)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_ladder_rejects_non_finite_energies(bad):
    # the transition (0, 1) never sees level 2, so only the energy check can catch it
    with pytest.raises(ValueError, match="energy of level 2 must be finite"):
        LadderSystem((0.0, 1.0, bad), [(0, 1, 0.5, 1.0)])


# ----------------------------------------------------------------- projectors


def test_transition_projector_basics():
    I_t, H_t, project = transition_projector(0, 1, 1.0, 3)
    np.testing.assert_allclose(I_t, np.diag([1.0, 1.0, 0.0]), atol=1e-15)
    assert np.trace(I_t) == pytest.approx(2.0)
    np.testing.assert_allclose(I_t @ I_t, I_t, atol=1e-15)
    np.testing.assert_allclose(I_t @ H_t @ I_t, H_t, atol=1e-15)

    rho_t = project(np.eye(3) / 3)
    np.testing.assert_allclose(rho_t, np.diag([1 / 3, 1 / 3, 0.0]), atol=1e-15)
    assert np.trace(rho_t) == pytest.approx(2 / 3)


def test_transition_projector_keeps_exactly_the_block():
    rng = np.random.default_rng(15)
    rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    _, _, project = transition_projector(1, 3, 2.0, 4)
    out = project(rho)
    for a in range(4):
        for b in range(4):
            if a in (1, 3) and b in (1, 3):
                assert out[a, b] == rho[a, b]
            else:
                assert out[a, b] == 0.0


def test_transition_projector_with_energies():
    _, H_t, _ = transition_projector(0, 2, 2.5, 3, energies=(0.0, 1.0, 2.5))
    np.testing.assert_allclose(H_t, np.diag([0.0, 0.0, 2.5]), atol=1e-15)
    _, H_c, _ = transition_projector(0, 2, 2.5, 3)
    np.testing.assert_allclose(H_c, np.diag([-1.25, 0.0, 1.25]), atol=1e-15)
    with pytest.raises(ValueError, match="out of range"):
        transition_projector(0, 2, 2.5, 2)
