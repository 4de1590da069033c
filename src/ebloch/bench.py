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
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dissipators import RhsSpec, _gkls, ebe_multi_level, ebe_two_level
from .systems import LadderSystem, TwoLevelSystem

# Coarse checksum quantum: per-application kernel disagreement is bounded by
# ~1e-14, so even 1e7 accumulated applications stay far below this bin size
# while any real divergence is caught.
CHECKSUM_QUANTUM = 1e-3
# states formed per step of the random draw
DRAW_CHUNK = 1024


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
    """(n, dim, dim) batch of dense random density matrices A A^dag / Tr, with
    every real part of the A drawn first, then every imaginary part, from a
    standard normal; formed a chunk at a time, in the batch's own memory."""
    rho = np.empty((n, dim, dim), dtype=complex)
    # real parts in the back half of rho: states [lo, hi) read theirs, then write
    # floats below 2 hi dim^2 <= (n + hi) dim^2, where state hi's real part begins
    re = rho.reshape(-1).view(np.float64)[n * dim * dim:].reshape(n, dim, dim)
    rng.standard_normal(out=re)
    for lo in range(0, n, DRAW_CHUNK):
        part = re[lo:lo + DRAW_CHUNK]
        A = part + 1j * rng.standard_normal(part.shape)
        P = A @ A.conj().transpose(0, 2, 1)
        rho[lo:lo + DRAW_CHUNK] = P / np.einsum("kii->k", P).real[:, None, None]
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
    # the median by hand: np.median's first call imports numpy.ma, and
    # statistics imports decimal and fractions at every start of the CLI
    rates.sort()
    mid = len(rates) // 2
    median = rates[mid] if len(rates) % 2 else (rates[mid - 1] + rates[mid]) / 2
    return median, complex((W * acc).sum())


def kernel_pair(system: TwoLevelSystem | LadderSystem):
    """((name, kernel, system), ...) for the system's elemental-Bloch kernel
    and its GKLS jump list, both bare dissipators: the unitary part is the
    same for both.  The jump terms are built here, so that no timed chunk
    pays for them."""
    two_level = isinstance(system, TwoLevelSystem)
    name, ebe = ("ebe2", ebe_two_level) if two_level else ("eben", ebe_multi_level)
    terms = RhsSpec.for_system(system).jump_terms
    return ((name, lambda rho: ebe(rho, system), system),
            ("gkls", lambda rho: _gkls(rho, terms), system))


def max_deviation(pair, inputs: np.ndarray) -> float:
    """Largest Frobenius distance between the two kernels of ``pair``, a
    :func:`kernel_pair`, over ``inputs``."""
    (_, fn_a, _), (_, fn_b, _) = pair
    return float(np.linalg.norm(fn_a(inputs) - fn_b(inputs), axis=(1, 2)).max(initial=0.0))


def run_bench(pair, inputs: np.ndarray, chunks: int) -> list[BenchRow]:
    """Timing table of both kernels of ``pair``, a :func:`kernel_pair`, over
    the same ``inputs``, an (n, d, d) stack such as :func:`random_states`."""
    if not 1 <= chunks <= len(inputs):
        raise ValueError("need applications >= chunks >= 1")
    n_trans = len(pair[0][2].transitions[0])
    rows = []
    for name, fn, _ in pair:
        ns, acc = _run_kernel(fn, inputs, chunks)
        rows.append(BenchRow(kernel=name, dim=inputs.shape[1], transitions=n_trans,
                             applications=len(inputs), chunks=chunks, ns_per_apply=ns,
                             checksum=_checksum(acc)))
    return rows
