"""Acceptance suite: every top-level claim at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion (including runtime against its budget).  Criteria 6 and 7 share one
N=14 harmonic-ladder simulation (module-scoped fixture).
"""

import time

import numpy as np
import pytest

from ebloch import bench
from ebloch.canonical import canonical_experiment
from ebloch.dissipators import RhsSpec, ebe_two_level, gkls_dissipator
from ebloch.linalg import trace_distance
from ebloch.propagate import propagate
from ebloch.stationary import fixed_point, gibbs_state, two_level_stationary_analytic
from ebloch.systems import (
    BathModel,
    TwoLevelSystem,
    build_oscillator,
    build_two_level_hamiltonian,
    jump_operators,
    rates_from_bath,
    verify_jump_algebra,
)
from oracles import build_superoperator


class _Budget:
    def __init__(self, name, limit_s, preparation_s=0.0):
        self.name = name
        self.limit = limit_s
        self.preparation = preparation_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0 + self.preparation
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.name}: {status} ({elapsed:.2f}s, budget {self.limit:.0f}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"{self.name}: runtime {elapsed:.2f}s exceeds budget {self.limit}s"
            )
        return False


def random_direction(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_density(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = A @ A.conj().T
    return rho / rho.trace()


def thermal_two_level(rng):
    E = float(rng.uniform(0.3, 3.0))
    T = float(rng.uniform(0.3, 4.0))
    gamma = float(rng.uniform(0.3, 2.0))
    gp, gm = rates_from_bath(BathModel(gamma, T), E)
    return TwoLevelSystem(E, tuple(random_direction(rng)), gp, gm), T


@pytest.fixture(scope="module")
def harmonic_ladder_run():
    # N=14, spacing/T_B = 10, T0 = 2 T_B: the tail of the initial Gibbs state
    # sits far below the profile floor, so the truncation edge never enters
    # the recorded ratio profiles.  Shared by criteria 6 and 7; its cost is
    # charged to both budgets.
    t0 = time.perf_counter()
    sys_h = build_oscillator(14, 10.0, "harmonic", BathModel(1.0, 1.0))
    diag = canonical_experiment(sys_h, T0=2.0, t_final=30.0, dt=1e-3, record_every=25)
    return diag, time.perf_counter() - t0


def test_criterion_01_jump_operator_algebra():
    with _Budget("1 jump-operator algebra (1000 draws, 7 identities <= 1e-12)", 1.0):
        rng = np.random.default_rng(1001)
        worst = 0.0
        for _ in range(1000):
            E = float(rng.uniform(0.2, 5.0))
            H = build_two_level_hamiltonian(E, random_direction(rng))
            report = verify_jump_algebra(jump_operators(H), H, E)
            worst = max(worst, report.max_residual)
        assert worst <= 1e-12, f"max residual {worst:.3e}"


def test_criterion_02_ebe_gkls_equivalence():
    with _Budget("2 EBE == GKLS equivalence (1000 draws <= 1e-12*(gp+gm))", 1.0):
        rng = np.random.default_rng(1002)
        for _ in range(1000):
            E = float(rng.uniform(0.2, 5.0))
            gp, gm = (float(x) for x in rng.uniform(0.05, 2.0, 2))
            sys2 = TwoLevelSystem(E, tuple(random_direction(rng)), gp, gm)
            pair = jump_operators(sys2.hamiltonian)
            rho = random_density(rng, 2)
            diff = ebe_two_level(rho, sys2) - gkls_dissipator(
                rho, ((pair.sigma_p, gp), (pair.sigma_m, gm))
            )
            assert np.linalg.norm(diff) <= 1e-12 * (gp + gm)


def test_criterion_03_two_level_stationary_state():
    with _Budget("3 two-level fixed point (100 systems, closed form & Gibbs <= 1e-10)", 5.0):
        rng = np.random.default_rng(1003)
        for _ in range(100):
            sys2, T = thermal_two_level(rng)
            report = fixed_point(RhsSpec.for_system(sys2))
            d_closed = trace_distance(report.rho_stationary,
                                      two_level_stationary_analytic(sys2))
            assert d_closed <= 1e-10, f"closed-form distance {d_closed:.3e}"
            assert report.gibbs_distance <= 1e-10, f"gibbs distance {report.gibbs_distance:.3e}"


def test_criterion_04_oscillator_gibbs_fixed_point():
    with _Budget("4 oscillator Gibbs fixed point (N=12, 3 coupling rules <= 1e-8)", 5.0):
        E, T = 1.0, 1.0
        for rule in ("harmonic", "constant", [1.0 + i * i for i in range(11)]):
            lad = build_oscillator(12, E, rule, BathModel(1.0, T))
            report = fixed_point(RhsSpec.for_system(lad))
            p = np.diag(report.rho_stationary).real
            ratios = p[1:10] / p[0:9]  # levels 0..8
            worst = np.abs(ratios - np.exp(-E / T)).max()
            assert worst <= 1e-8, f"rule {rule}: ratio error {worst:.3e}"


def _herm_dev(states):
    """Largest entry of S - S^dag over a stack of states."""
    return float(np.abs(states - states.conj().swapaxes(1, 2)).max())


def test_criterion_05_trajectory_physicality():
    with _Budget("5 trace/Hermiticity/positivity along expm trajectories", 10.0):
        gp, gm = rates_from_bath(BathModel(1.0, 1.0), 1.0)
        sys2 = TwoLevelSystem(1.0, (0.48, 0.36, 0.8), gp, gm)
        rho0 = np.array([[0.7, 0.25 + 0.1j], [0.25 - 0.1j, 0.3]], dtype=complex)
        traj = propagate(RhsSpec.for_system(sys2), rho0, 10.0, 0.01, 10)
        assert traj.trace_dev.max() <= 1e-10
        assert _herm_dev(traj.states) <= 1e-12
        assert traj.min_eig.min() >= -1e-8

        lad = build_oscillator(12, 3.0, "harmonic", BathModel(1.0, 1.0))
        for T0 in (2.0, 0.5):
            traj = propagate(RhsSpec.for_system(lad),
                             gibbs_state(lad.hamiltonian, T0), 10.0, 0.01, 10)
            assert traj.trace_dev.max() <= 1e-10
            assert _herm_dev(traj.states) <= 1e-12
            assert traj.min_eig.min() >= -1e-8


def test_criterion_06_canonical_invariance(harmonic_ladder_run):
    diag, fixture_s = harmonic_ladder_run
    with _Budget("6 canonical invariance (harmonic <= 1e-6, constant > 1e-3)", 30.0,
                 preparation_s=fixture_s):
        assert diag.clean.any()
        worst = np.nanmax(diag.max_nonuniformity[diag.clean])
        assert worst <= 1e-6, f"harmonic non-uniformity {worst:.3e}"

        sys_c = build_oscillator(14, 10.0, "constant", BathModel(1.0, 1.0))
        diag_c = canonical_experiment(sys_c, T0=2.0, t_final=6.0, dt=1e-3, record_every=25)
        peak = np.nanmax(diag_c.max_nonuniformity[diag_c.clean])
        assert peak > 1e-3, f"constant-rule non-uniformity only {peak:.3e}"


def test_criterion_07_thermalization_ode(harmonic_ladder_run):
    diag, fixture_s = harmonic_ladder_run
    with _Budget("7 thermalization ODE vs full simulation", 30.0,
                 preparation_s=fixture_s):
        assert diag.ode_mismatch <= 1e-4, f"ode mismatch {diag.ode_mismatch:.3e}"
        # both converge to -E/T_B = -10 at t = 30/gamma_0
        assert abs(diag.mean_ratio[-1] + 10.0) <= 1e-8
        assert abs(diag.lna_ode[-1] + 10.0) <= 1e-8


def test_criterion_08_two_level_lambda_dynamics():
    with _Budget("8 two-level lambda dynamics <= 1e-8", 1.0):
        gp, gm = rates_from_bath(BathModel(1.0, 1.0), 1.3)
        sys2 = TwoLevelSystem(1.3, (0.0, 0.6, 0.8), gp, gm)
        lam0 = -0.6
        rho0 = 0.5 * np.eye(2) + (lam0 / sys2.E) * sys2.hamiltonian
        traj = propagate(RhsSpec.for_system(sys2), rho0, 5.0, 0.01, 5)
        lam_star = sys2.gamma_diff / sys2.gamma_sum
        H = sys2.hamiltonian
        lam_fit = np.array([2.0 * np.trace(s @ H).real / sys2.E for s in traj.states])
        lam_ref = lam_star + (lam0 - lam_star) * np.exp(-sys2.gamma_sum * traj.times)
        worst = np.abs(lam_fit - lam_ref).max()
        assert worst <= 1e-8, f"lambda fit error {worst:.3e}"


def test_criterion_09_superoperator_spectrum():
    with _Budget("9 superoperator spectrum (one zero mode, none amplifying)", 10.0):
        rng = np.random.default_rng(1009)
        bath = BathModel(1.0, 1.0)
        # (spec, jumps): jumps probes the GKLS kernel instead of the elemental one
        specs = []
        for _ in range(3):
            sys2, _T = thermal_two_level(rng)
            specs.append((RhsSpec.for_system(sys2), False))
        sys2, _T = thermal_two_level(rng)
        specs.append((RhsSpec.for_system(sys2), True))
        specs.append((RhsSpec.for_system(sys2, gamma_pd=-0.3), False))
        specs.append((RhsSpec.for_system(build_oscillator(5, 1.0, "harmonic", bath)), False))
        specs.append((RhsSpec.for_system(build_oscillator(6, 1.3, "constant", bath)), False))
        specs.append((RhsSpec.for_system(
            build_oscillator(6, 0.7, [1.0 + i * i for i in range(5)], bath)), False))
        specs.append((RhsSpec.for_system(build_oscillator(4, 1.0, "harmonic", bath)), True))
        for k, (spec, jumps) in enumerate(specs):
            ev = np.linalg.eigvals(build_superoperator(spec, jumps))
            n_zero = int(np.sum(np.abs(ev) <= 1e-10))
            assert n_zero == 1, f"spec {k}: {n_zero} near-zero eigenvalues"
            assert ev.real.max() <= 1e-10, f"spec {k}: max Re {ev.real.max():.3e}"


def test_criterion_10_bench_integrity():
    with _Budget("10 bench integrity (1e6 applications, identical checksums)", 60.0):
        gp, gm = rates_from_bath(BathModel(1.0, 1.0), 1.0)
        sys2 = TwoLevelSystem(1.0, (0.48, 0.36, 0.8), gp, gm)
        rng = np.random.default_rng(1010)
        pair = bench.kernel_pair(sys2)
        rows = bench.run_bench(pair, bench.random_states(2, 1_000_000, rng), 5)
        checksums = {row.checksum for row in rows}
        assert len(checksums) == 1, f"checksums differ: {sorted(checksums)}"
        assert all(row.ns_per_apply > 0 for row in rows)
        # spot-check the underlying map agreement at the equivalence tolerance
        dev = bench.max_deviation(
            pair, bench.random_states(2, 20000, np.random.default_rng(1010)))
        assert dev <= 1e-12 * (gp + gm), f"kernel deviation {dev:.3e}"
