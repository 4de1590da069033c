# Canonically scaled jump operators for an arbitrary two-level Hamiltonian.
#
# Building sigma_p = |s1><s0| from unit eigenvectors pins the scaling freedom
# of the jump operators: the pair then satisfies the fermionic-style algebra
#   sigma^2 = 0,   [sigma_p, sigma_m] = 2H/E,   {sigma_p, sigma_m} = 1,
#   sigma_p sigma_m sigma_p = sigma_p,          [H, sigma_p] = E sigma_p.
# This script builds a random tilted Hamiltonian and prints the residual of
# every identity.

import numpy as np

from ebloch import build_two_level_hamiltonian, jump_operators, verify_jump_algebra
from ebloch.systems import ALGEBRA_TOL

rng = np.random.default_rng(42)

E = 1.7
eps = rng.standard_normal(3)
eps /= np.linalg.norm(eps)
print(f"energy gap E = {E}, Bloch axis eps = {np.round(eps, 4)}")

H = build_two_level_hamiltonian(E, eps)
pair = jump_operators(H)
print("\nsigma_p =\n", np.round(pair.sigma_p, 6))

report = verify_jump_algebra(pair, H, E)
print("\nidentity residuals (Frobenius):")
for name, value in report.residuals().items():
    print(f"  {name:10s} {value:.3e}")
print(f"\nall identities hold to {ALGEBRA_TOL:g}: {report.passed}")

# The same construction over many random Hamiltonians: the worst residual
# stays at round-off level.
worst = 0.0
for _ in range(2000):
    E = float(rng.uniform(0.2, 5.0))
    v = rng.standard_normal(3)
    H = build_two_level_hamiltonian(E, v / np.linalg.norm(v))
    worst = max(worst, verify_jump_algebra(jump_operators(H), H, E).max_residual)
print(f"worst residual over 2000 random draws: {worst:.3e}")
