# Is the jump-free dissipator kernel cheaper than the jump-operator one?
#
# Both kernels realize the same linear map, so while the timing runs, a
# quantized checksum of every output is accumulated; equal checksums certify
# that speed was not bought with a different map.  Inputs are identical for
# both kernels, timing is the median over chunks, and the deviation is taken
# over the first 5000 timed inputs.

import numpy as np

from ebloch import BathModel, TwoLevelSystem, build_oscillator, rates_from_bath
from ebloch.bench import kernel_pair, max_deviation, random_states, run_bench

rng = np.random.default_rng(0)

gamma_p, gamma_m = rates_from_bath(BathModel(1.0, 1.0), 1.0)
two_level = TwoLevelSystem(1.0, (0.48, 0.36, 0.8), gamma_p, gamma_m)
ladder = build_oscillator(10, 1.0, "harmonic", BathModel(1.0, 1.0))

for system, n_apps in ((two_level, 100_000), (ladder, 20_000)):
    pair = kernel_pair(system)
    inputs = random_states(system.hamiltonian.shape[0], n_apps, rng)
    rows = run_bench(pair, inputs, 5)
    gkls_ns = next(r.ns_per_apply for r in rows if r.kernel == "gkls")
    name = type(system).__name__
    print(f"--- {name}: {n_apps} applications, median-of-5 chunks")
    for r in rows:
        print(f"  {r.kernel:5s} dim={r.dim:2d} transitions={r.transitions:2d} "
              f"{r.ns_per_apply:9.0f} ns/apply  ratio={r.ns_per_apply / gkls_ns:.3f}  "
              f"checksum={r.checksum}")
    match = len({r.checksum for r in rows}) == 1
    dev = max_deviation(pair, inputs[:5000])
    print(f"  checksums match: {match}; max kernel deviation on 5000 inputs: {dev:.3e}\n")

print("Ladder inputs are dense random states, as for the two-level system: the")
print("jump-free kernel damps every coherence at half the out-rates of its two")
print("levels, as the pairwise jump list does, so the checksums also cover")
print("coherences between levels that share no transition.")
