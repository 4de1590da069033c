"""Unit-scale properties of propagation and fixed points, through the API and
the CLI (hbar = k_B = 1 leaves two units free).

* Rate scale lam: every rate and ``gamma_pd`` times lam, ``t_final`` and
  ``dt`` times 1/lam.  The populations are the same, and so are the
  coherences when the unitary part is off (it turns at the energies, which
  do not scale).
* Energy scale mu: every energy, gap, T and ``bath_T`` times mu and
  ``gamma_pd`` times 1/mu^2.  The rates do not change, and neither do the
  populations, the diagnostics or any accept-or-refuse verdict.
"""

import numpy as np
import pytest

from ebloch.cli import format_matrix_text, main, parse_matrix_text
from ebloch.dissipators import RhsSpec
from ebloch.propagate import propagate
from ebloch.stationary import effective_temperature, fixed_point
from ebloch.systems import (
    BathModel,
    LadderSystem,
    TwoLevelSystem,
    build_oscillator,
    rates_from_bath,
)

SCALES = [1e-12, 1e12]
KINDS = ["two_level", "oscillator", "explicit"]
EXPLICIT = ((0.0, 1.0, 2.7), [(0, 1, 0.2, 0.8), (1, 2, 0.1, 0.9), (0, 2, 0.05, 0.6)])


def scaled_system(kind, lam=1.0, mu=1.0):
    """The kind's system with its rates times lam and its energies and bath
    temperature times mu."""
    if kind == "two_level":
        return TwoLevelSystem(1.3 * mu, (0.6, 0.0, 0.8), *rates_from_bath(BathModel(lam, 0.7 * mu),
                                                                             1.3 * mu))
    if kind == "oscillator":
        return build_oscillator(6, mu, "harmonic", BathModel(lam, mu))
    energies, rows = EXPLICIT
    return LadderSystem(tuple(mu * e for e in energies),
                        [(i, j, lam * gp, lam * gm) for i, j, gp, gm in rows])


def coherent_start(dim):
    """0.7 |psi><psi| + 0.3/dim, psi an equal superposition of levels 0, 1 and
    (from three levels on) 2 of the original basis."""
    psi = np.zeros(dim, dtype=complex)
    psi[:3] = [1.0, 1j, -1.0][:dim]
    psi /= np.linalg.norm(psi)
    return 0.7 * np.outer(psi, psi.conj()) + 0.3 * np.eye(dim) / dim


def level_populations(spec, traj):
    """(n_times, dim) occupations of the levels of H: under a tilted H the
    populations of the original basis also read the coherences, whose phase
    turns at the energies."""
    return np.diagonal(spec.compiled.rotate_in(traj.states), axis1=1, axis2=2).real


def run(kind, lam=1.0, mu=1.0, include_unitary=True):
    spec = RhsSpec.for_system(scaled_system(kind, lam, mu), gamma_pd=-0.3 * lam / mu ** 2,
                              include_unitary=include_unitary)
    return spec, propagate(spec, coherent_start(spec.dim), 4.0 / lam, 0.05 / lam, 8)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("lam", SCALES)
@pytest.mark.parametrize("include_unitary", [True, False])
def test_rate_scale_leaves_the_populations(kind, lam, include_unitary):
    spec_ref, ref = run(kind, include_unitary=include_unitary)
    spec, traj = run(kind, lam=lam, include_unitary=include_unitary)
    np.testing.assert_allclose(traj.times, ref.times / lam, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(level_populations(spec, traj), level_populations(spec_ref, ref),
                               rtol=1e-12, atol=0.0)
    if not include_unitary:
        states, ref_states = traj.states, ref.states
        assert np.abs(states - ref_states).max() <= 1e-12 * np.abs(ref_states).max()
    assert traj.warnings == ref.warnings


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mu", SCALES)
def test_energy_scale_leaves_populations_diagnostics_and_verdicts(kind, mu):
    spec_ref, ref = run(kind)
    spec, traj = run(kind, mu=mu)
    np.testing.assert_allclose(traj.times, ref.times, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(level_populations(spec, traj), level_populations(spec_ref, ref),
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(traj.min_eig, ref.min_eig, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(traj.trace_dev, ref.trace_dev, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(traj.top_pop, ref.top_pop, rtol=1e-12, atol=0.0)
    assert traj.warnings == ref.warnings

    fp, fp_ref = fixed_point(spec), fixed_point(spec_ref)
    np.testing.assert_allclose(fp.p, fp_ref.p, rtol=1e-12, atol=0.0)
    assert fp.multiplicity == fp_ref.multiplicity
    assert fp.spectral_gap == pytest.approx(fp_ref.spectral_gap, rel=1e-12)
    assert fp.residual <= 1e-15 and fp.gibbs_distance == pytest.approx(fp_ref.gibbs_distance,
                                                                       abs=1e-15, nan_ok=True)
    T_ref = effective_temperature(spec_ref)
    T = effective_temperature(spec)
    assert (T is None) == (T_ref is None)
    if T is not None:
        assert T == pytest.approx(mu * T_ref, rel=1e-12)
    # a positive gamma_pd is refused at every unit, a start that is not
    # positive semidefinite too
    with pytest.raises(ValueError, match="gamma_pd must be finite and <= 0"):
        RhsSpec.for_system(spec.system, gamma_pd=0.1 / mu ** 2)
    bad = np.diag([1.2, -0.2] + [0.0] * (spec.dim - 2))
    with pytest.raises(ValueError, match="not positive semidefinite"):
        propagate(spec, bad, 1.0, 0.1)


# ------------------------------------------------------------------ the CLI

CLI_SYSTEMS = {
    "oscillator": "[system]\ntype = oscillator\nN = 6\nspacing = {mu!r}\ngamma = {lam!r}\n"
                  "bath_T = {mu!r}\n",
    "two_level": "[system]\ntype = two_level\nE = {E!r}\neps = 0.6, 0, 0.8\ngamma = {lam!r}\n"
                 "bath_T = {T!r}\n",
    # a ladder whose top level stays below canonical's leak tolerance
    "quench": "[system]\ntype = oscillator\nN = 12\nspacing = {spacing!r}\ngamma = {lam!r}\n"
              "bath_T = {mu!r}\n",
}
CLI_DISSIPATOR = "[dissipator]\ngamma_pd = {gamma_pd!r}\n"
# simulate only: fixed-point reads neither a start nor a time grid
CLI_START_AND_GRID = ("[initial]\ntype = file\npath = {start}\n"
                      "[integration]\nt_final = {t_final!r}\ndt = {dt!r}\nrecord_every = 8\n")
# canonical only: it reads no [dissipator] and always starts from Gibbs at T0
CLI_QUENCH = ("[integration]\nt_final = {t_final!r}\ndt = {dt!r}\nrecord_every = 10\n"
              "[canonical]\nT0 = {T0!r}\n")
CLI_OUTPUT = "[output]\npath = out.csv\nwhat = all\n"


def cli_run(tmp_path, sub, system, lam=1.0, mu=1.0):
    """(exit code, comment lines, header, float rows, extra) of one CLI run;
    extra is the fixed point's matrix, canonical's ``clean`` column (which
    the header and rows then leave out), or None for simulate."""
    out = tmp_path / f"{sub}-{system}-{lam:g}-{mu:g}"
    out.mkdir()
    text = CLI_SYSTEMS[system].format(lam=lam, mu=mu, E=1.3 * mu, T=0.7 * mu, spacing=3 * mu)
    if sub == "canonical":
        text += CLI_QUENCH.format(t_final=3.0 / lam, dt=0.01 / lam, T0=2.0 * mu)
    else:
        text += CLI_DISSIPATOR.format(gamma_pd=-0.3 * lam / mu ** 2)
    if sub == "simulate":
        start = out / "start.txt"
        start.write_text(format_matrix_text(coherent_start(6 if system == "oscillator" else 2)))
        text += CLI_START_AND_GRID.format(start=start, t_final=4.0 / lam, dt=0.05 / lam)
    cfg = out / "run.cfg"
    cfg.write_text(text + CLI_OUTPUT)
    code = main([sub, "--config", str(cfg), "--out", str(out)])
    if code:
        return code, None, None, None, None
    lines = (out / "out.csv").read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    header, *rows = [l.split(",") for l in lines if not l.startswith("#")]
    extra = None
    if sub == "fixed-point":
        extra = parse_matrix_text((out / "out.state.txt").read_text())
    elif sub == "canonical":
        header.pop()
        extra = [row.pop() for row in rows]
    return code, comments, header, np.array(rows, dtype=float), extra


def assert_columns(got, ref, header, scaled=(), roundoff=()):
    """Each column of ``got`` equals ``ref`` to 1e-12 relative, times the
    factor that ``scaled`` names for it.  A column that ``roundoff`` names
    holds round-off in both runs: each stays within the bound named for it,
    times the column's factor."""
    scaled, roundoff = dict(scaled), dict(roundoff)
    for k, name in enumerate(header):
        factor = scaled.get(name, 1.0)
        if name in roundoff:
            assert np.abs(ref[:, k]).max() <= roundoff[name], name
            assert np.abs(got[:, k]).max() <= roundoff[name] * factor, name
        else:
            np.testing.assert_allclose(got[:, k], factor * ref[:, k], rtol=1e-12, atol=0.0,
                                       err_msg=name)


@pytest.mark.parametrize("lam, mu", [(s, 1.0) for s in SCALES] + [(1.0, s) for s in SCALES])
def test_cli_simulate_under_a_rate_or_energy_scale(tmp_path, lam, mu):
    # on a ladder H is diagonal, so p_i are the level populations and
    # abs_rho_i_j the moduli of the coherences, which the unitary part only turns
    ref = cli_run(tmp_path, "simulate", "oscillator")
    got = cli_run(tmp_path, "simulate", "oscillator", lam=lam, mu=mu)
    assert got[0] == ref[0] == 0 and got[1] == ref[1] and got[2] == ref[2]
    assert_columns(got[3], ref[3], ref[2], scaled=[("t", 1 / lam)],
                   roundoff=[("trace_dev", 1e-13)])


@pytest.mark.parametrize("system", ["oscillator", "two_level"])
@pytest.mark.parametrize("lam, mu", [(s, 1.0) for s in SCALES] + [(1.0, s) for s in SCALES])
def test_cli_fixed_point_under_a_rate_or_energy_scale(tmp_path, system, lam, mu):
    ref = cli_run(tmp_path, "fixed-point", system)
    got = cli_run(tmp_path, "fixed-point", system, lam=lam, mu=mu)
    assert got[0] == ref[0] == 0 and got[1] == ref[1] and got[2] == ref[2]
    # both specs are thermal, so the residual ||W p|| and the Gibbs distance are round-off
    assert_columns(got[3], ref[3], ref[2], scaled=[("spectral_gap", lam), ("residual", lam)],
                   roundoff=[("residual", 1e-13), ("gibbs_distance", 1e-13)])
    np.testing.assert_allclose(got[4], ref[4], rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("lam, mu", [(s, 1.0) for s in SCALES] + [(1.0, s) for s in SCALES])
def test_cli_canonical_under_a_rate_or_energy_scale(tmp_path, lam, mu):
    # T0 scales with the energies, so the quench is the same in units of the
    # spacing and of 1/gamma
    ref = cli_run(tmp_path, "canonical", "quench")
    got = cli_run(tmp_path, "canonical", "quench", lam=lam, mu=mu)
    assert got[0] == ref[0] == 0 and got[2] == ref[2]
    assert got[4] == ref[4] and "true" in ref[4]  # clean, row by row
    [mismatch], [mismatch_ref] = ([float(c.split("=")[1]) for c in run[1]] for run in (got, ref))
    assert abs(mismatch - mismatch_ref) <= 1e-12
    # the Gibbs start's log-ratio profile is flat: its nonuniformity is
    # round-off in both runs, and every later row is compared
    k = ref[2].index("max_nonuniformity")
    assert max(ref[3][0, k], got[3][0, k]) <= 1e-14
    assert_columns(got[3][1:], ref[3][1:], ref[2], scaled=[("t", 1 / lam)])
