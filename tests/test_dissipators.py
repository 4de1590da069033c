"""Tests for the dissipator kernels and the assembled right-hand side.

The two-level equivalence checks here are genuine cross-checks: the
elemental-Bloch kernel is built from commutators with no jump operators,
the GKLS kernel from an independently constructed jump pair.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ebloch import bench
from ebloch.dissipators import (
    RhsSpec,
    double_commutator,
    ebe_multi_level,
    ebe_two_level,
    gkls_dissipator,
    ladder_jump_list,
)
from ebloch.linalg import is_hermitian
from ebloch.stationary import fixed_point, gibbs_state
from ebloch.systems import (
    BathModel,
    LadderSystem,
    TwoLevelSystem,
    build_oscillator,
    build_two_level_hamiltonian,
    jump_operators,
    rates_from_bath,
)
from oracles import master_rhs, split_apply, transition_projector

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_density(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = A @ A.conj().T
    return rho / rho.trace()


def random_two_level(rng, with_rates=True):
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    E = float(rng.uniform(0.2, 5.0))
    gp, gm = (rng.uniform(0.05, 2.0, 2) if with_rates else (0.0, 0.0))
    return TwoLevelSystem(E, tuple(v), float(gp), float(gm))


def literal_multi_level(rho, sys):
    # term-by-term projector form, the independent oracle for the vectorized
    # kernel: each transition's block terms, then its terms between the block
    # and the other levels
    out = np.zeros_like(rho)
    for i, j, gp, gm in zip(*sys.transitions):
        E_t = sys.energies[j] - sys.energies[i]
        I_t, H_t, project = transition_projector(i, j, E_t, sys.N, sys.energies)
        Q_t = np.eye(sys.N) - I_t
        h_t = (H_t - 0.5 * H_t.trace() * I_t) / E_t
        rho_t = project(rho)
        tr_t = rho_t.trace()
        gsum = gp + gm
        gdiff = gp - gm
        out = out - gsum * (rho_t - 0.5 * tr_t * I_t)
        out = out + gdiff * h_t * tr_t
        inner = H_t @ rho_t - rho_t @ H_t
        out = out + gsum * (H_t @ inner - inner @ H_t) / (2.0 * E_t**2)
        out = out - 0.25 * gsum * (I_t @ rho @ Q_t + Q_t @ rho @ I_t)
        out = out + 0.5 * gdiff * (h_t @ rho @ Q_t + Q_t @ rho @ h_t)
    return out


def random_ladder(rng):
    """2 to 9 levels at distinct, unsorted energies; each upward pair is a
    transition with probability 1/2 (at least one is), at rates in [0, 2)."""
    N = int(rng.integers(2, 10))
    energies = rng.permutation(np.cumsum(rng.uniform(0.2, 1.5, N)))
    pairs = [(i, j) for i in range(N) for j in range(N) if energies[j] > energies[i]]
    keep = rng.random(len(pairs)) < 0.5
    keep[rng.integers(len(pairs))] = True
    rows = [(i, j, *rng.uniform(0.0, 2.0, 2).tolist())
            for (i, j), kept in zip(pairs, keep) if kept]
    return LadderSystem(tuple(energies.tolist()), rows)


def rate_equation_oracle(p, sys):
    # dp_i/dt = -(f g_i + (1-f) g_{i-1}) p_i + (1-f) g_i p_{i+1} + f g_{i-1} p_{i-1}
    # written for a nearest-neighbour ladder with one bath
    n = sys.N
    ii, _, gp, gm = (a.tolist() for a in sys.transitions)
    f = gp[0] / (gp[0] + gm[0])
    g = {i: up + down for i, up, down in zip(ii, gp, gm)}
    dp = np.zeros(n)
    for i in range(n):
        gi = g.get(i, 0.0)
        gim = g.get(i - 1, 0.0)
        dp[i] = -(f * gi + (1 - f) * gim) * p[i]
        if i + 1 < n:
            dp[i] += (1 - f) * gi * p[i + 1]
        if i - 1 >= 0:
            dp[i] += f * gim * p[i - 1]
    return dp


# ----------------------------------------------------------------------- GKLS


def test_gkls_empty_jump_list_is_zero():
    rng = np.random.default_rng(20)
    rho = random_density(rng, 3)
    np.testing.assert_array_equal(gkls_dissipator(rho, ()), np.zeros((3, 3)))


def test_gkls_pure_decay_hand_evaluation():
    # excited |0><0| with a single lowering jump |1><0| at rate gamma
    gamma = 0.8
    sm_std = np.array([[0, 0], [1, 0]], dtype=complex)
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = gkls_dissipator(rho, ((sm_std, gamma),))
    np.testing.assert_allclose(out, gamma * np.diag([-1.0, 1.0]), atol=1e-15)


def test_gkls_gibbs_is_stationary_under_detailed_balance():
    bath = BathModel(1.0, 0.7)
    E = 1.3
    gp, gm = rates_from_bath(bath, E)
    H = build_two_level_hamiltonian(E, (0.6, 0, 0.8))
    pair = jump_operators(H)
    rho_g = gibbs_state(H, bath.T)
    out = gkls_dissipator(rho_g, ((pair.sigma_p, gp), (pair.sigma_m, gm)))
    assert np.linalg.norm(out) <= 1e-12


def test_gkls_output_hermitian_traceless():
    rng = np.random.default_rng(21)
    for _ in range(20):
        rho = random_density(rng, 3)
        L = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = gkls_dissipator(rho, ((L, 0.7),))
        assert is_hermitian(out, 1e-12)
        assert abs(np.trace(out)) <= 1e-13 * max(1.0, np.abs(out).max())


def test_gkls_rejects_negative_rate_and_bad_dims():
    rho = np.eye(2) / 2
    with pytest.raises(ValueError, match="non-negative"):
        gkls_dissipator(rho, ((SZ, -1.0),))
    with pytest.raises(ValueError, match="dimension"):
        gkls_dissipator(rho, ((np.eye(3), 1.0),))


# ------------------------------------------------------------ two-level kernel


def test_ebe_two_level_balanced_rates_fix_maximally_mixed():
    sys2 = TwoLevelSystem(1.0, (0, 0, 1), 0.7, 0.7)
    out = ebe_two_level(np.eye(2) / 2, sys2)
    np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-15)


def test_ebe_two_level_on_gibbs_form_state():
    # rho = 1/2 + lam H/E evolves as (-(gp+gm) lam + (gp-gm)) H/E
    rng = np.random.default_rng(22)
    for _ in range(20):
        sys2 = random_two_level(rng)
        lam = float(rng.uniform(-0.9, 0.9))
        H = sys2.hamiltonian
        rho = 0.5 * np.eye(2) + (lam / sys2.E) * H
        expected = (-sys2.gamma_sum * lam + sys2.gamma_diff) * H / sys2.E
        np.testing.assert_allclose(ebe_two_level(rho, sys2), expected, atol=1e-13)


def test_ebe_two_level_equals_gkls_with_canonical_jumps():
    rng = np.random.default_rng(23)
    for _ in range(300):
        sys2 = random_two_level(rng)
        pair = jump_operators(sys2.hamiltonian)
        jumps = ((pair.sigma_p, sys2.gamma_p), (pair.sigma_m, sys2.gamma_m))
        rho = random_density(rng, 2)
        diff = ebe_two_level(rho, sys2) - gkls_dissipator(rho, jumps)
        assert np.linalg.norm(diff) <= 1e-12 * sys2.gamma_sum


def test_ebe_two_level_linear_extension_matches_gkls_everywhere():
    # both maps are linear and agree on the unit-trace hyperplane, hence on
    # arbitrary matrices; check it numerically on non-Hermitian inputs too
    rng = np.random.default_rng(24)
    sys2 = random_two_level(rng)
    pair = jump_operators(sys2.hamiltonian)
    jumps = ((pair.sigma_p, sys2.gamma_p), (pair.sigma_m, sys2.gamma_m))
    for _ in range(50):
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        diff = ebe_two_level(M, sys2) - gkls_dissipator(M, jumps)
        assert np.linalg.norm(diff) <= 1e-12 * sys2.gamma_sum * np.linalg.norm(M)


def test_ebe_two_level_rejects_wrong_dimension():
    sys2 = TwoLevelSystem(1.0, (0, 0, 1), 0.5, 0.5)
    with pytest.raises(ValueError, match="2x2"):
        ebe_two_level(np.eye(3) / 3, sys2)


# ---------------------------------------------------------- multi-level kernel


def test_ebe_multi_level_matches_literal_projector_form():
    rng = np.random.default_rng(25)
    lad = build_oscillator(6, 1.0, "harmonic", BathModel(1.0, 1.0))
    for _ in range(30):
        rho = random_density(rng, 6)
        got = ebe_multi_level(rho, lad)
        want = literal_multi_level(rho, lad)
        assert np.abs(got - want).max() <= 1e-14


def test_ebe_multi_level_on_arbitrary_graph_matches_literal():
    rng = np.random.default_rng(26)
    energies = (0.0, 0.9, 2.1, 3.7)
    lad = LadderSystem(energies, [(0, 1, 0.3, 0.7), (1, 3, 0.2, 0.8), (0, 2, 0.1, 0.5)])
    for _ in range(30):
        rho = random_density(rng, 4)
        assert np.abs(ebe_multi_level(rho, lad) - literal_multi_level(rho, lad)).max() <= 1e-14


def test_ebe_multi_level_block_state_reduces_to_two_level():
    # The per-transition term on a block-confined state is the embedded 2x2
    # kernel; isolate transition t by zeroing every other rate.  (On a ladder
    # with all rates active, neighbouring transitions sharing a level also
    # act on such a state -- that part is covered by the rate-equation test.)
    full = build_oscillator(5, 1.3, "harmonic", BathModel(0.8, 1.1))
    rng = np.random.default_rng(27)
    rows = list(zip(*(a.tolist() for a in full.transitions)))
    for keep in range(4):
        i, j, gp, gm = rows[keep]
        only = LadderSystem(
            full.energies,
            [row if k == keep else (*row[:2], 0.0, 0.0) for k, row in enumerate(rows)],
        )
        block = random_density(rng, 2)
        rho = np.zeros((5, 5), dtype=complex)
        rho[np.ix_([i, j], [i, j])] = block
        # eigenbasis order inside the block: lower level first, so eps_z = -1
        sys2 = TwoLevelSystem(full.energies[j] - full.energies[i], (0, 0, -1), gp, gm)
        expected = np.zeros((5, 5), dtype=complex)
        expected[np.ix_([i, j], [i, j])] = ebe_two_level(block, sys2)
        np.testing.assert_allclose(ebe_multi_level(rho, only), expected, atol=1e-13)


def test_ebe_multi_level_gibbs_is_stationary():
    lad = build_oscillator(8, 1.0, "harmonic", BathModel(1.0, 1.0))
    rho_g = gibbs_state(lad.hamiltonian, 1.0)
    assert np.linalg.norm(ebe_multi_level(rho_g, lad)) <= 1e-10


def test_ebe_multi_level_diagonal_matches_rate_equations():
    rng = np.random.default_rng(28)
    lad = build_oscillator(7, 1.0, [1.0, 0.4, 2.2, 0.9, 1.7, 3.0], BathModel(1.0, 0.8))
    for _ in range(20):
        p = rng.dirichlet(np.ones(7))
        rho = np.diag(p).astype(complex)
        out = ebe_multi_level(rho, lad)
        np.testing.assert_allclose(np.diag(out).real, rate_equation_oracle(p, lad), atol=1e-13)
        assert np.abs(out - np.diag(np.diag(out))).max() <= 1e-15  # stays diagonal


def test_ebe_multi_level_trace_and_hermiticity():
    rng = np.random.default_rng(29)
    lad = build_oscillator(6, 1.0, "constant", BathModel(1.0, 1.0))
    for _ in range(20):
        rho = random_density(rng, 6)
        out = ebe_multi_level(rho, lad)
        assert abs(np.trace(out)) <= 1e-13
        assert is_hermitian(out, 1e-12)


def test_ladder_jump_list_structure():
    lad = build_oscillator(3, 1.0, "harmonic", BathModel(1.0, 1.0))
    jumps = ladder_jump_list(lad)
    assert len(jumps) == 4  # two transitions, up and down each
    up0, g_up0 = jumps[0]
    assert up0[1, 0] == 1.0 and np.count_nonzero(up0) == 1
    assert g_up0 == lad.transitions[2][0]  # gamma_p of transition 0


def test_ebe_multi_level_equals_pairwise_gkls_on_random_ladders():
    # the equivalence the source paper claims: on any transition graph the
    # jump-free kernel, its operator form and the compiled generator are the
    # GKLS dissipator of the pairwise jump list, on dense states
    rng = np.random.default_rng(30)
    for _ in range(240):
        lad = random_ladder(rng)
        gen = RhsSpec.for_system(lad, include_unitary=False).compiled
        assert gen.V is None
        jumps = ladder_jump_list(lad)
        for rho in bench.random_states(lad.N, 2, rng):
            want = gkls_dissipator(rho, jumps)
            for got in (ebe_multi_level(rho, lad), literal_multi_level(rho, lad),
                        split_apply(gen, rho)):
                assert np.abs(got - want).max() <= 1e-13
    # a coherence between levels that share no transition is damped too
    lad = build_oscillator(4, 1.0, "harmonic", BathModel(1.0, 1.0))
    rho = np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex)
    rho[0, 2] = rho[2, 0] = 0.4
    d_eben = ebe_multi_level(rho, lad)
    assert abs(d_eben[0, 2]) > 0.01
    np.testing.assert_allclose(d_eben, gkls_dissipator(rho, ladder_jump_list(lad)),
                               rtol=0, atol=1e-15)


# ------------------------------------------------------------- pure dephasing


def test_pure_dephasing_commuting_state_is_fixed():
    H = build_two_level_hamiltonian(1.0, (0, 0, 1))
    rho = np.diag([0.3, 0.7]).astype(complex)
    np.testing.assert_allclose(double_commutator(H, rho), np.zeros((2, 2)), atol=1e-15)


def test_pure_dephasing_hand_evaluation():
    # H = (E/2) sz, rho = (1 + sx)/2: [H, [H, rho]] = (E^2/2) sx
    E = 1.7
    H = 0.5 * E * SZ
    rho = 0.5 * (np.eye(2) + SX)
    np.testing.assert_allclose(double_commutator(H, rho), 0.5 * E**2 * SX, atol=1e-14)


def test_pure_dephasing_quadratic_in_energy():
    rho = 0.5 * (np.eye(2) + SX)
    out1 = double_commutator(0.5 * SZ, rho)
    out2 = double_commutator(1.0 * SZ, rho)
    assert np.linalg.norm(out2) == pytest.approx(4 * np.linalg.norm(out1), rel=1e-13)


# ----------------------------------------------------------------- master_rhs


def test_master_rhs_closed_system_eigenprojector_is_stationary():
    H = build_two_level_hamiltonian(1.0, (0.6, 0, 0.8))
    w, V = np.linalg.eigh(H)
    proj = np.outer(V[:, 0], V[:, 0].conj())
    out = master_rhs(proj, RhsSpec(H))
    assert np.linalg.norm(out) <= 1e-12


def test_master_rhs_ebe2_equals_gkls_spec():
    rng = np.random.default_rng(31)
    for _ in range(100):
        sys2 = random_two_level(rng)
        spec = RhsSpec.for_system(sys2)
        rho = random_density(rng, 2)
        diff = master_rhs(rho, spec) - master_rhs(rho, spec, jumps=True)
        assert np.linalg.norm(diff) <= 1e-12 * sys2.gamma_sum


def test_master_rhs_gibbs_stationary_with_any_dephasing():
    bath = BathModel(1.0, 1.4)
    E = 0.9
    gp, gm = rates_from_bath(bath, E)
    sys2 = TwoLevelSystem(E, (0, 0.6, 0.8), gp, gm)
    rho_g = gibbs_state(sys2.hamiltonian, bath.T)
    for gamma_pd in (0.0, -0.3, -0.8):
        spec = RhsSpec.for_system(sys2, gamma_pd=gamma_pd)
        assert np.linalg.norm(master_rhs(rho_g, spec)) <= 1e-12


def test_master_rhs_trace_and_hermiticity_preserving():
    rng = np.random.default_rng(32)
    lad = build_oscillator(5, 1.0, "harmonic", BathModel(1.0, 1.0))
    cases = [
        (RhsSpec.for_system(lad), False),
        (RhsSpec.for_system(lad), True),
        (RhsSpec.for_system(random_two_level(rng), gamma_pd=-0.2), False),
    ]
    for spec, jumps in cases:
        for _ in range(20):
            rho = random_density(rng, spec.dim)
            out = master_rhs(rho, spec, jumps)
            assert abs(np.trace(out)) <= 1e-12
            assert np.abs(out - out.conj().T).max() <= 1e-12 * max(1, np.abs(out).max())


def test_for_system_takes_its_options_by_keyword():
    sys2 = TwoLevelSystem(1.0, (0, 0, 1), 0.3, 0.7)
    lad = build_oscillator(3, 1.0, "harmonic", BathModel(1.0, 1.0))
    for system in (sys2, lad):
        spec = RhsSpec.for_system(system, include_unitary=False, gamma_pd=-0.1)
        assert (spec.system, spec.jumps, spec.include_unitary, spec.gamma_pd) == (
            system, (), False, -0.1)
        np.testing.assert_array_equal(spec.hamiltonian, system.hamiltonian)


def test_a_positional_option_after_the_hamiltonian_is_a_type_error():
    # a leftover kind argument would otherwise bind to include_unitary (a
    # truthy string) or to system
    lad = build_oscillator(3, 1.0, "harmonic", BathModel(1.0, 1.0))
    with pytest.raises(TypeError):
        RhsSpec.for_system(lad, "gkls")
    with pytest.raises(TypeError):
        RhsSpec(lad.hamiltonian, "gkls")
    with pytest.raises(TypeError):
        RhsSpec(lad.hamiltonian, lad)


def test_rhs_spec_validation():
    sys2 = TwoLevelSystem(1.0, (0, 0, 1), 0.5, 0.5)
    lad = build_oscillator(3, 1.0, "harmonic", BathModel(1.0, 1.0))
    with pytest.raises(ValueError, match="own Hamiltonian"):
        RhsSpec(np.eye(2), system=lad)
    with pytest.raises(ValueError, match="non-negative"):
        RhsSpec(sys2.hamiltonian, jumps=((SZ, -1.0),))


def test_rhs_spec_refuses_a_gamma_pd_that_is_positive_or_not_finite():
    # gamma_pd [H, [H, rho]] is the jump L = H at rate -2 gamma_pd: only a
    # finite gamma_pd <= 0 is completely positive, at every size and route
    sys2 = TwoLevelSystem(1.0, (0.6, 0, 0.8), 0.3, 0.7)
    lad = build_oscillator(20, 1.0, "harmonic", BathModel(1.0, 1.0))
    makers = (lambda g: RhsSpec.for_system(sys2, gamma_pd=g),
              lambda g: RhsSpec.for_system(lad, include_unitary=False, gamma_pd=g),
              lambda g: RhsSpec(sys2.hamiltonian, gamma_pd=g,
                                jumps=((jump_operators(sys2.hamiltonian).sigma_m, 0.5),)))
    for make in makers:
        for gamma_pd in (0.0, -0.0):
            spec = make(gamma_pd)
            assert spec.gamma_pd == 0.0 and spec.compiled is not None
        for gamma_pd in (1e-300, 0.4, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=re.escape(
                    f"gamma_pd must be finite and <= 0, got {gamma_pd}")):
                make(gamma_pd)


def test_two_level_dephasing_is_set_only_on_the_spec():
    # the system has no dephasing field whose magnitude a default could
    # apply with the amplifying sign
    with pytest.raises(TypeError):
        TwoLevelSystem(1.0, (0, 0, 1), 0.3, 0.7, gamma_pd=0.8)
    spec = RhsSpec.for_system(TwoLevelSystem(1.0, (0, 0, 1), 0.3, 0.7))
    assert spec.gamma_pd == 0.0
    assert fixed_point(spec).multiplicity == 1


# -------------------------------------------------------------- stacked inputs

STACK_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                          suppress_health_check=[HealthCheck.too_slow])


@st.composite
def rhs_specs(draw):
    """(spec, jumps) of a tilted two-level or random ladder spec, either
    kernel, or of a closed spec."""
    include_unitary = draw(st.booleans())
    gamma_pd = draw(st.sampled_from([0.0, -0.3, -0.4]))
    rate = st.floats(0.05, 2.0)
    family = draw(st.sampled_from(["two_level", "ladder", "closed"]))
    if family == "two_level":
        v = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)
                          .filter(lambda v: np.linalg.norm(v) > 0.1)))
        sys2 = TwoLevelSystem(draw(st.floats(0.2, 5.0)), tuple(v / np.linalg.norm(v)),
                              draw(rate), draw(rate))
        return (RhsSpec.for_system(sys2, include_unitary=include_unitary, gamma_pd=gamma_pd),
                draw(st.booleans()))
    n = draw(st.integers(2, 6))
    if family == "closed":
        A = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n * n,
                                   max_size=2 * n * n))).reshape(2, n, n)
        H = A[0] + 1j * A[1]
        return RhsSpec(H + H.conj().T, include_unitary=include_unitary), True
    gaps = draw(st.lists(st.floats(0.1, 1.5), min_size=n - 1, max_size=n - 1))
    energies = np.concatenate([[0.0], np.cumsum(gaps)])
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] < p[1]), min_size=1, max_size=2 * n,
                          unique=True))
    transitions = [(i, j, draw(st.floats(0.0, 2.0)), draw(rate)) for i, j in pairs]
    lad = LadderSystem(tuple(energies), transitions)
    return (RhsSpec.for_system(lad, include_unitary=include_unitary, gamma_pd=gamma_pd),
            draw(st.booleans()))


def per_state(fn, stack):
    return np.stack([fn(M) for M in stack])


def random_stack(rng, n, d):
    return rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))


@STACK_SETTINGS
@given(rhs_specs(), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_master_rhs_on_a_stack_equals_per_state_calls(spec_jumps, n, seed):
    spec, jumps = spec_jumps
    stack = random_stack(np.random.default_rng(seed), n, spec.dim)
    got = master_rhs(stack, spec, jumps)
    want = per_state(lambda M: master_rhs(M, spec, jumps), stack)
    assert got.shape == stack.shape
    assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


def test_kernels_on_a_stack_equal_per_state_calls():
    rng = np.random.default_rng(34)
    sys2 = random_two_level(rng)
    lad = build_oscillator(6, 1.0, "harmonic", BathModel(1.0, 1.0))
    jumps = ladder_jump_list(lad)
    cases = [
        (lambda M: ebe_two_level(M, sys2), 2),
        (lambda M: ebe_multi_level(M, lad), 6),
        (lambda M: gkls_dissipator(M, jumps), 6),
        (lambda M: double_commutator(lad.hamiltonian, M), 6),
        (lambda M: double_commutator(sys2.hamiltonian, M), 2),
    ]
    for fn, d in cases:
        stack = random_stack(rng, 9, d)
        want = per_state(fn, stack)
        assert np.abs(fn(stack) - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("shape", [(2,), (3, 2, 3), (2, 3, 3), (1, 2, 2, 2), ()])
def test_stacked_entry_points_reject_bad_shapes(shape):
    sys2 = TwoLevelSystem(1.0, (0, 0, 1), 0.5, 0.5)
    lad = build_oscillator(2, 1.0, "harmonic", BathModel(1.0, 1.0))
    rho = np.zeros(shape, dtype=complex)
    calls = [
        lambda: master_rhs(rho, RhsSpec.for_system(sys2)),
        lambda: master_rhs(rho, RhsSpec.for_system(sys2), jumps=True),
        lambda: master_rhs(rho, RhsSpec.for_system(lad)),
        lambda: master_rhs(rho, RhsSpec(SZ)),
        lambda: ebe_two_level(rho, sys2),
        lambda: ebe_multi_level(rho, lad),
        lambda: gkls_dissipator(rho, ((SX, 1.0),)),
        lambda: double_commutator(SZ, rho),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("dim, n", [(2, 1), (3, 2 * bench.DRAW_CHUNK + 5), (10, 700)])
def test_random_states_are_the_whole_array_draw(dim, n):
    # the chunked draw keeps the order of one draw of every real part, then
    # every imaginary part, and gives valid dense states
    got = bench.random_states(dim, n, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    A = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    rho = A @ A.conj().transpose(0, 2, 1)
    assert got.tobytes() == (rho / np.einsum("kii->k", rho).real[:, None, None]).tobytes()
    assert is_hermitian(got) and np.linalg.eigvalsh(got).min() > 0.0


def test_random_states_hold_no_second_array_of_their_size():
    import tracemalloc

    tracemalloc.start()
    try:
        states = bench.random_states(10, 20_000, np.random.default_rng(9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * states.nbytes, f"{peak} bytes traced for {states.nbytes}"


def per_state_checksum(outs, rate):
    # the accumulation order of the one-state-at-a-time timing loop
    acc = np.zeros(outs.shape[1:], dtype=complex)
    for out in outs:
        acc += out
    return bench._checksum(complex((bench._probe(outs.shape[1]) * acc).sum()), rate)


def assert_equals_per_state(fn, stack, want=None):
    # within 1e-15 of the largest output
    want = per_state(fn, stack) if want is None else want
    assert np.abs(fn(stack) - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("case", ["two_level", "ladder"])
def test_batched_bench_checksum_equals_per_state_accumulation(case, monkeypatch):
    if case == "two_level":  # acceptance criterion 10's system
        gp, gm = rates_from_bath(BathModel(1.0, 1.0), 1.0)
        system, n = TwoLevelSystem(1.0, (0.48, 0.36, 0.8), gp, gm), 50_000
    else:
        system, n = build_oscillator(6, 1.0, "harmonic", BathModel(1.0, 1.0)), 2_000
    (name, fn_e, _), (twin, fn_g, _) = bench.kernel_pair(system)
    assert (name, twin) == ({"two_level": "ebe2", "ladder": "eben"}[case], "gkls")
    H, gen = system.hamiltonian, RhsSpec.for_system(system).compiled
    dim = len(H)
    if gen.V is None:  # the ladder's diagonal H: rotate by a dense unitary instead
        rng = np.random.default_rng(3)
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        gen = dataclasses.replace(gen, V=np.linalg.qr(A)[0])
    # the jump terms are built before any chunk is timed: no timed chunk
    # can reach a spec
    monkeypatch.setattr(bench, "RhsSpec", None)
    inputs = bench.random_states(dim, n, np.random.default_rng(1010))
    rate = float((system.transitions[2] + system.transitions[3]).max())
    # one per-state reference: both kernels' batched checksums must equal it,
    # and each kernel's batched outputs its own per-state outputs
    reference = None
    for fn in (fn_e, fn_g):
        outs = per_state(fn, inputs)
        reference = reference or per_state_checksum(outs, rate)
        assert bench._checksum(bench._run_kernel(fn, inputs, 5)[1], rate) == reference
        assert_equals_per_state(fn, inputs, outs)
    # strided stacks, which the kernels' one-call right products must copy
    part = inputs[:2000]
    for fn in (fn_g, fn_e, lambda rho: double_commutator(H, rho), gen.rotate_out):
        for stack in (part[::2], part.swapaxes(1, 2)):
            assert_equals_per_state(fn, stack)
