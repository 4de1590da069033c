"""Canonical-invariance diagnostics for thermalizing ladders.

A generalized Gibbs state on an equally spaced ladder has one free parameter,
the level ratio a = p_{i+1}/p_i.  These tools measure how uniform the ratio
profile ln(p_{i+1}/p_i) stays during relaxation, extract a(t) and the bath
mismatch delta(t), and compare the full dynamics against the reduced
one-variable thermalization equation

    d ln a / dt = gamma_0 (a (1 - f) + f / a - 1),

which carries an explicit overall rate gamma_0 (the reduced equation is a
rate equation; we read its bare form as the gamma_0 = 1 time unit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dissipators import RhsSpec
from .propagate import propagate
from .stationary import gibbs_state
from .systems import LadderSystem

POPULATION_FLOOR = 1e-14
LEAK_TOL = 1e-6


@dataclass
class CanonicalDiagnostics:
    """Per-recorded-time canonical-form diagnostics of a ladder trajectory.

    ``ratio_profiles[k, i] = ln(p_{i+1}/p_i)`` at time k, NaN where either
    population sits below the floor.  ``max_nonuniformity`` is the largest
    deviation of the profile from its mean; ``a_series`` exponentiates the
    mean; ``delta_series`` measures the mismatch from the bath Gibbs ratio.
    ``lna_ode`` is the exact solution of the one-variable thermalization
    equation from a(0) = exp(-E/T0), and ``ode_mismatch`` the largest
    |ln a_ODE - mean ratio| inside the clean window (truncation leak below
    ``LEAK_TOL``).
    """

    times: np.ndarray
    ratio_profiles: np.ndarray
    max_nonuniformity: np.ndarray
    a_series: np.ndarray
    delta_series: np.ndarray
    mean_ratio: np.ndarray
    lna_ode: np.ndarray
    truncation_leak: np.ndarray
    clean: np.ndarray
    ode_mismatch: float


def ratio_profile(p) -> np.ndarray:
    """Log level ratios ln(p_{i+1}/p_i) of one population vector, or of each
    row of an (n, N) stack of them.

    Entries where either population lies below ``POPULATION_FLOOR`` are NaN
    (absent): the tail of a truncated ladder would otherwise inject
    log-of-zero artifacts.  Requires normalized probability vectors;
    populations below -1e-12 are rejected, in any row.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] < 2:
        raise ValueError("p must be a probability vector with at least two entries, "
                         "or an (n, N) stack of them")
    if p.min() < -1e-12:
        raise ValueError(f"negative population {p.min():.3e} beyond -1e-12")
    sums = p.sum(axis=-1, keepdims=True)
    unnormalized = np.abs(sums - 1.0) > 1e-9
    if unnormalized.any():
        raise ValueError(f"populations must sum to 1 within 1e-9, got {sums[unnormalized][0]}")
    lower, upper = p[..., :-1], p[..., 1:]
    ok = (lower >= POPULATION_FLOOR) & (upper >= POPULATION_FLOOR)
    out = np.full(lower.shape, np.nan)
    out[ok] = np.log(upper[ok] / lower[ok])
    return out


def invariance_condition(gammas) -> tuple[bool, np.ndarray]:
    """Check gamma_{i+1} - gamma_i = gamma_0 for every i.

    This is the condition under which a generalized Gibbs state stays of
    Gibbs form throughout thermalization; the harmonic rule (i+1)*gamma
    satisfies it, a constant rule does not.  Returns (holds, defects) with
    defect_i = gamma_{i+1} - gamma_i - gamma_0.
    """
    g = np.asarray(gammas, dtype=float)
    if g.size < 2:
        raise ValueError("need at least two couplings")
    if not (g[0] > 0.0):
        raise ValueError("gamma_0 must be positive")
    defects = g[1:] - g[:-1] - g[0]
    return bool(np.all(np.abs(defects) <= 1e-12 * g[0])), defects


def _thermal_ladder_parameters(sys: LadderSystem) -> tuple[float, float, float]:
    """(E, f, gamma0) of an equally spaced single-bath ladder; raises if the
    transitions are not the full nearest-neighbour chain with one shared
    Fermi factor."""
    ii, jj, gp, gm = sys.transitions
    if sorted(zip(ii.tolist(), jj.tolist())) != [(i, i + 1) for i in range(sys.N - 1)]:
        raise ValueError("canonical experiment needs the full nearest-neighbour ladder")
    gaps, gsum = np.diff(sys.energies), gp + gm
    E = float(gaps[0])
    if np.any(np.abs(gaps - E) > 1e-9 * max(1.0, E)):
        raise ValueError("canonical experiment needs equal level spacing")
    if np.any(gsum <= 0.0):
        raise ValueError("every transition needs a positive total rate")
    fs = gp / gsum
    rung0 = int(np.argmin(ii))  # the transition between levels 0 and 1
    f = float(fs[rung0])
    if np.any(np.abs(fs - f) > 1e-9):
        raise ValueError("canonical experiment needs one bath temperature for all rungs")
    if not (0.0 < f < 0.5):
        raise ValueError("bath must have a finite positive temperature (f in (0, 1/2))")
    return E, f, float(gsum[rung0])


def canonical_experiment(
    sys: LadderSystem,
    T0: float,
    t_final: float,
    dt: float,
    record_every: int = 10,
) -> CanonicalDiagnostics:
    """Quench a ladder from Gibbs(T0) and track the canonical form.

    The state is propagated with the exact flow of ``propagate``: the
    records ``record_every`` steps apart come from one map expm(W g dt),
    doubled by repeated squaring while that saves calls, and are checked in
    passes of as many records as fill 1 MiB at 16 N bytes each, so a
    1,201-record quench of N = 14 (269 kB) takes one pass.  Against a
    uniformization series, whose terms are non-negative, every recorded
    population agrees to 1e-12 relative in the tests (4e-14 on a 14-level
    quench whose tail falls to 3.5e-57), as log-ratio profiles need.  The
    Gibbs start is diagonal, so ``propagate`` tracks no coherence and its
    records are the (n_times, N) populations, which is all that is read
    here besides ``top_pop``.

    The one-variable thermalization equation is a Riccati equation with
    constant coefficients and fixed points a* = f/(1-f) and 1.  Its exact
    solution from a0 = exp(-E/T0) is evaluated at the recorded times,

        ln a(t) = ln(w* a* + w0 a0) - ln(w* + w0),
        w0 = (1 - a*) e^{-kappa t},  w* = (1 - a0)(1 - e^{-kappa t}),

    with kappa = gamma_0 (1 - 2f), and compared inside the clean window.
    Both weights are non-negative, so nothing cancels, and the logs are
    summed in log space, so ``lna_ode`` stays finite at any finite T0 > 0
    (at T0 = inf, a0 = 1 is an unstable fixed point; ValueError).
    """
    if not 0.0 < T0 < math.inf:
        raise ValueError(f"T0 must be a finite positive temperature, got {T0}")
    E, f, gamma0 = _thermal_ladder_parameters(sys)
    rho0 = gibbs_state(sys.hamiltonian, T0)
    spec = RhsSpec.for_system(sys)
    traj = propagate(spec, rho0, t_final, dt, record_every=record_every)

    pops = traj.populations()
    profiles = ratio_profile(np.clip(pops, 0.0, None) / pops.sum(axis=1, keepdims=True))
    valid = ~np.isnan(profiles)
    with np.errstate(invalid="ignore"):  # 0/0 gives NaN on rows with no valid ratio
        mean_ratio = np.where(valid, profiles, 0.0).sum(axis=1) / valid.sum(axis=1)
    # fmax skips the absent (NaN) entries; a row with none stays NaN
    nonunif = np.fmax.reduce(np.abs(profiles - mean_ratio[:, None]), axis=1)

    ln_astar, ln_a0 = math.log(f) - math.log1p(-f), -E / T0
    kt = gamma0 * (1.0 - 2.0 * f) * traj.times
    ln_w0 = math.log(-math.expm1(ln_astar)) - kt
    with np.errstate(divide="ignore"):  # w* = 0 at t = 0
        ln_ws = np.log(-np.expm1(ln_a0)) + np.log(-np.expm1(-kt))
    lna_ode = np.logaddexp(ln_ws + ln_astar, ln_w0 + ln_a0) - np.logaddexp(ln_ws, ln_w0)

    leak = traj.top_pop
    clean = (leak < LEAK_TOL) & np.isfinite(mean_ratio)
    mism = np.abs(lna_ode - mean_ratio)[clean]
    ode_mismatch = float(mism.max()) if mism.size else math.nan
    return CanonicalDiagnostics(
        times=traj.times,
        ratio_profiles=profiles,
        max_nonuniformity=nonunif,
        a_series=np.exp(mean_ratio),
        delta_series=mean_ratio - ln_astar,
        mean_ratio=mean_ratio,
        lna_ode=lna_ode,
        truncation_leak=leak,
        clean=clean,
        ode_mismatch=ode_mismatch,
    )
