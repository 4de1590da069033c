"""Timing and integrity comparison of the dissipator kernels.

The elemental-Bloch kernels need no jump operators, only the Hamiltonian and
its contractions, so they are candidates for being cheaper than the jump
route.  Speed must never trade against correctness: while the timing table
is produced, a quantized checksum of the outputs is accumulated for each
kernel over the same inputs, and matching checksums certify that both
kernels computed the same map.

Timing: the inputs are split into chunks, each kernel is applied to a whole
chunk in one batched call on its (n, d, d) stack, and ``ns_per_apply`` is
the median over chunks of the chunk's time divided by its number of states.

Input note: for dim 2 the two kernels agree on every input, so dense random
states are used; for ladders they agree on populations (and on states
confined to one transition block) but differ on cross-block coherences, so
ladder inputs are random diagonal states.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dissipators import RhsSpec, master_rhs
from .systems import LadderSystem, TwoLevelSystem

# Coarse checksum quantum: per-application kernel disagreement is bounded by
# ~1e-14, so even 1e7 accumulated applications stay far below this bin size
# while any real divergence is caught.
CHECKSUM_QUANTUM = 1e-3
# The unitary part is identical for both kernels, so they are compared as
# bare dissipators.
INCLUDE_UNITARY = False


@dataclass
class BenchRow:
    kernel: str
    dim: int
    transitions: int
    applications: int
    chunks: int
    ns_per_apply: float
    checksum: str


def _probe(dim: int) -> np.ndarray:
    """Fixed full-rank weighting matrix so the checksum sees every entry."""
    i, j = np.indices((dim, dim))
    return ((1.0 + i - j) + 1j * (1.0 + i + 2.0 * j)) / (dim * dim)


def _checksum(acc: complex) -> str:
    return f"{int(round(acc.real / CHECKSUM_QUANTUM))}:{int(round(acc.imag / CHECKSUM_QUANTUM))}"


def random_states(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, dim, dim) batch of random density matrices.

    Dense A A^dag / tr states for dim 2; random diagonal (Dirichlet) states
    for larger dimensions (see the module note on kernel agreement).
    """
    if dim == 2:
        A = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        rho = A @ A.conj().transpose(0, 2, 1)
        tr = np.einsum("kii->k", rho).real
        return rho / tr[:, None, None]
    p = rng.dirichlet(np.ones(dim), size=n)
    rho = np.zeros((n, dim, dim), dtype=complex)
    idx = np.arange(dim)
    rho[:, idx, idx] = p
    return rho


def _run_kernel(fn, inputs: np.ndarray, chunks: int) -> tuple[float, complex]:
    """Apply ``fn`` to each chunk in one call; median ns/apply over chunks + probe sum.

    Outputs are summed into one matrix inside the timed loop and the probe
    weighting is applied once at the end; both kernels pay the identical
    accumulation cost.
    """
    n = len(inputs)
    dim = inputs.shape[1]
    W = _probe(dim)
    bounds = np.linspace(0, n, chunks + 1).astype(int)
    acc = np.zeros((dim, dim), dtype=complex)
    rates = []
    for lo, hi in zip(bounds, bounds[1:]):
        t0 = time.perf_counter()
        acc += fn(inputs[lo:hi]).sum(axis=0)
        t1 = time.perf_counter()
        if hi > lo:
            rates.append((t1 - t0) / (hi - lo) * 1e9)
    return float(np.median(rates)), complex((W * acc).sum())


def kernel_pair(system: TwoLevelSystem | LadderSystem):
    """((kind, rhs, spec), ...) for the system's elemental-Bloch kernel and its
    GKLS twin, both with ``include_unitary = INCLUDE_UNITARY``."""
    specs = (RhsSpec.for_system(system, None, INCLUDE_UNITARY),
             RhsSpec.for_system(system, "gkls", INCLUDE_UNITARY))
    return tuple((spec.kind, lambda rho, s=spec: master_rhs(rho, s), spec) for spec in specs)


def max_deviation(system, inputs: np.ndarray) -> float:
    """Largest Frobenius distance between the two kernels over ``inputs``."""
    (_, fn_a, _), (_, fn_b, _) = kernel_pair(system)
    return float(np.linalg.norm(fn_a(inputs) - fn_b(inputs), axis=(1, 2)).max(initial=0.0))


def run_bench(
    system: TwoLevelSystem | LadderSystem,
    applications: int,
    chunks: int,
    rng: np.random.Generator,
) -> list[BenchRow]:
    """Timing table over ``applications`` identical inputs for both kernels."""
    if applications < chunks or chunks < 1:
        raise ValueError("need applications >= chunks >= 1")
    pair = kernel_pair(system)
    dim = pair[0][2].dim
    n_trans = len(system.transitions) if isinstance(system, LadderSystem) else 1
    inputs = random_states(dim, applications, rng)
    rows = []
    for name, fn, _spec in pair:
        ns, acc = _run_kernel(fn, inputs, chunks)
        rows.append(
            BenchRow(
                kernel=name,
                dim=dim,
                transitions=n_trans,
                applications=applications,
                chunks=chunks,
                ns_per_apply=ns,
                checksum=_checksum(acc),
            )
        )
    return rows
