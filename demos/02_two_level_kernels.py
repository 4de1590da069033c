# Two routes to the same two-level dissipator.
#
# The jump route needs the operators sigma_p, sigma_m; the elemental-Bloch
# route needs only the Hamiltonian and splits the generator into mixing
# toward equal populations, energy relaxation, and dephasing.  For the
# canonical scaling the two coincide, which makes either one an oracle for
# the other.  A Gibbs-form state rho = 1/2 + lambda H/E stays of that form,
# with lambda relaxing linearly: that one scalar captures thermalization.

import numpy as np

from ebloch import (
    BathModel,
    RhsSpec,
    TwoLevelSystem,
    ebe_two_level,
    gibbs_state,
    gkls_dissipator,
    jump_operators,
    propagate,
    rates_from_bath,
    trace_distance,
    two_level_stationary_analytic,
)

bath = BathModel(gamma=1.0, T=1.0)
E = 1.3
gamma_p, gamma_m = rates_from_bath(bath, E)
sys2 = TwoLevelSystem(E, (0.0, 0.6, 0.8), gamma_p, gamma_m)
print(f"rates: gamma_p = {gamma_p:.6f}, gamma_m = {gamma_m:.6f} "
      f"(ratio = exp(-E/T) = {gamma_p / gamma_m:.6f})")

# kernel equivalence on a random state
rng = np.random.default_rng(1)
A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
rho = A @ A.conj().T
rho /= rho.trace()
pair = jump_operators(sys2.hamiltonian)
jumps = ((pair.sigma_p, gamma_p), (pair.sigma_m, gamma_m))
diff = ebe_two_level(rho, sys2) - gkls_dissipator(rho, jumps)
print(f"|EBE - GKLS| on a random state: {np.linalg.norm(diff):.3e}")

# relaxation to the Gibbs state, with the one-parameter lambda description
lam0 = -0.9
rho0 = 0.5 * np.eye(2) + (lam0 / E) * sys2.hamiltonian
traj = propagate(RhsSpec.for_system(sys2), rho0, t_final=6.0, dt=0.01,
                 method="expm", record_every=100)
lam_star = sys2.gamma_diff / sys2.gamma_sum
print(f"\nlambda* = (gp-gm)/(gp+gm) = {lam_star:.6f}")
print("   t     lambda(t)   closed form")
for t, state in zip(traj.times, traj.states):
    lam = 2.0 * np.trace(state @ sys2.hamiltonian).real / E
    ref = lam_star + (lam0 - lam_star) * np.exp(-sys2.gamma_sum * t)
    print(f"  {t:4.1f}  {lam:+.8f}  {ref:+.8f}")

rho_g = gibbs_state(sys2.hamiltonian, bath.T)
print(f"\ntrace distance of final state to Gibbs: "
      f"{trace_distance(traj.states[-1], rho_g):.3e}")
print(f"closed-form stationary state vs Gibbs:  "
      f"{trace_distance(two_level_stationary_analytic(sys2), rho_g):.3e}")
