# When does a thermal state stay thermal while it thermalizes?
#
# Quench a ladder from Gibbs(T0) into a bath at T_B and watch the log level
# ratios r_i = ln(p_{i+1}/p_i).  If the state keeps a generalized Gibbs form,
# the profile stays uniform and its mean follows the one-variable equation
#   d ln a / dt = gamma_0 (a(1-f) + f/a - 1).
# That happens iff the couplings satisfy gamma_{i+1} - gamma_i = gamma_0,
# which the harmonic rule does and a constant rule does not.

import numpy as np

from ebloch import BathModel, build_oscillator, canonical_experiment, invariance_condition

N, E, T_B, T0 = 14, 10.0, 1.0, 2.0
bath = BathModel(gamma=1.0, T=T_B)

for rule in ("harmonic", "constant"):
    ladder = build_oscillator(N, E, rule, bath)
    _, _, gp, gm = ladder.transitions
    gammas = gp + gm
    holds, defects = invariance_condition(gammas)
    print(f"--- {rule} couplings: invariance condition holds = {holds} "
          f"(max |defect| = {np.abs(defects).max():.2e})")

    diag = canonical_experiment(ladder, T0=T0, t_final=6.0, dt=1e-3, record_every=250)
    print("    t    ln a (sim)   ln a (ODE)    delta     non-uniformity")
    for k in range(len(diag.times)):
        print(f"  {diag.times[k]:5.2f}  {diag.mean_ratio[k]:+.6f}  "
              f"{diag.lna_ode[k]:+.6f}  {diag.delta_series[k]:+.4f}   "
              f"{diag.max_nonuniformity[k]:.3e}")
    print(f"  max |ln a_sim - ln a_ODE| in the clean window: {diag.ode_mismatch:.3e}\n")

print("The harmonic profile stays uniform to ~1e-14 while relaxing from")
print(f"ln a = -E/T0 = {-E / T0} to -E/T_B = {-E / T_B}; the constant rule breaks")
print("uniformity at the bottom of the ladder within a fraction of 1/gamma.")
