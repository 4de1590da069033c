"""Time evolution under any RhsSpec: fixed-step RK4, exact exponential,
trajectory recording and physicality monitoring.

Every spec is stepped through its :class:`SplitGenerator`
(:attr:`RhsSpec.compiled`) in the eigenbasis of H: a rate matrix on the
populations and one rate per coherence.  The trace is never renormalized
and eigenvalues are never clipped; drift and negativity are diagnostics,
not noise to hide.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
# the bare package only (about 15 ms; no run loads scipy.linalg): a SciPy
# routine is reached through this binding as scipy.<sub>.<fn> at call time,
# and perfbench's tracer reads scipy.linalg.expm through it when it installs
import scipy

from .dissipators import RhsSpec, SplitGenerator
from .linalg import herm_part, is_hermitian
from .systems import LadderSystem

AMPLIFY_TOL = 1e-10
MIN_EIG_WARN = -1e-8
TOP_POP_WARN = 1e-6
# records checked and diagnosed per stacked pass; all records at once would
# hold the diagnostics' temporaries for the whole run
_RECORD_CHUNK = 64
# largest record stack a run may allocate, in bytes: per record, dim * 8 for
# the populations, 16 per tracked coherence and 32 for the time and the three
# diagnostics
MAX_RECORD_BYTES = 1 << 30


class PropagationError(RuntimeError):
    """Numerical failure during time evolution (NaN/Inf or divergence)."""


@dataclass
class Trajectory:
    """Recorded time grid, states and per-record diagnostics.

    ``trace_dev``, ``min_eig`` and ``top_pop`` (NaN without a ladder) hold
    one value per recorded time, computed from the records in the
    eigenbasis.  The records are kept in the eigenbasis of H as the
    (n_times, dim) populations and the (n_times, k) coherences s_ab of the
    k pairs a < b that are nonzero at the start; every other coherence is
    zero for all time.  ``states`` assembles the (n_times, dim, dim) stack
    of density matrices from them, with s_ba = conj(s_ab), and rotates it
    out of the eigenbasis anew whenever it is read; a read whose stack would
    exceed ``MAX_RECORD_BYTES`` raises ``ValueError`` before allocating.
    :meth:`populations` reads the records, never ``states``.  ``warnings``
    lists every warning of the run.
    """

    times: np.ndarray
    trace_dev: np.ndarray
    min_eig: np.ndarray
    top_pop: np.ndarray
    _pops: np.ndarray = field(repr=False)
    _cohs: np.ndarray = field(repr=False)
    _pairs: tuple = field(repr=False)  # (a, b) index arrays of the coherences
    _gen: SplitGenerator = field(repr=False)
    warnings: list = field(default_factory=list)

    @property
    def states(self) -> np.ndarray:
        n, dim = self._pops.shape
        _check_record_bytes(f"{n} states of dim {dim}", n * dim * dim * 16)
        return self._gen.rotate_out(_assemble(self._pops, self._cohs, self._pairs))

    def populations(self) -> np.ndarray:
        """(n_times, dim) diagonal of ``states`` from the records: p itself
        when V is None, else |V|^2 p + 2 Re sum_ab V[:, a] conj(V[:, b]) s_ab."""
        V = self._gen.V
        if V is None:
            return self._pops.copy()
        a, b = self._pairs
        return (self._pops @ (np.abs(V) ** 2).T
                + 2.0 * (self._cohs @ (V[:, a] * V[:, b].conj()).T).real)


def _assemble(pops: np.ndarray, cohs: np.ndarray, pairs: tuple) -> np.ndarray:
    """(n, dim, dim) states in the eigenbasis from (n, dim) populations and
    (n, k) coherences s_ab at pairs (a, b), with s_ba = conj(s_ab)."""
    n, dim = pops.shape
    s = np.zeros((n, dim, dim), dtype=complex)
    s[:, np.arange(dim), np.arange(dim)] = pops
    a, b = pairs
    s[:, a, b] = cohs
    s[:, b, a] = cohs.conj()
    return s


def _check_record_bytes(what: str, nbytes: int) -> None:
    if nbytes > MAX_RECORD_BYTES:
        raise ValueError(f"{what} need {nbytes:.3g} bytes, over the record limit of "
                         f"{MAX_RECORD_BYTES:.3g}; raise record_every or shorten the run")


def _rk4_polynomial(z):
    """R4(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, the map of one classical RK4
    step of dy/dt = lambda y at z = dt * lambda; elementwise on arrays."""
    return 1.0 + z * (1.0 + z * (1.0 + z * (1.0 + z / 4.0) / 3.0) / 2.0)


def _rk4_matrix(Z: np.ndarray) -> np.ndarray:
    """R4(Z) for a square matrix Z, so that one RK4 step of dp/dt = W p is
    p <- R4(dt W) p."""
    eye = np.eye(len(Z))
    return eye + Z @ (eye + Z @ (eye + Z @ (eye + Z / 4.0) / 3.0) / 2.0)


# [13/13] Pade coefficients b_0..b_13 over b_0, so that V(0) is the identity
# and exp(0) comes out exact, and the 1-norm up to which they meet double
# precision unscaled (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005)
_PADE13 = tuple(b / 64764752532480000 for b in (
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1))
_THETA13 = 5.371920351148152


def expm(A) -> np.ndarray:
    """exp(A) of a square matrix by [13/13] Pade scaling and squaring: A is
    scaled by 2^-s with s = max(0, ceil(log2(||A||_1 / theta_13))), the
    Pade quotient is taken with one linear solve, and the result is squared
    s times.  exp(0) is the identity exactly; a matrix whose 1-norm is not
    finite gives an all-NaN map."""
    A = np.asarray(A)
    norm = np.linalg.norm(A, 1)
    if not np.isfinite(norm):
        return np.full_like(A, np.nan)
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    A = A / 2.0 ** s
    b = _PADE13
    eye = np.eye(len(A), dtype=A.dtype)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


def _check_rk4_stability(modes: np.ndarray, dt: float) -> None:
    """Raise before stepping when one of the modes a run steps that does not
    amplify (Re lambda <= AMPLIFY_TOL, oscillatory ones included) grows by
    more than the 1 + dt * AMPLIFY_TOL per step that the amplifying check
    tolerates."""
    kept = modes[modes.real <= AMPLIFY_TOL]
    if kept.size == 0:
        return
    growth = np.abs(_rk4_polynomial(dt * kept))
    worst = int(np.argmax(growth))
    if growth[worst] > 1.0 + dt * AMPLIFY_TOL:
        raise PropagationError(
            f"RK4 step dt={dt:.6g} is unstable: non-amplifying mode lambda = "
            f"{complex(kept[worst]):.6g} gives |R4(dt lambda)| = {growth[worst]:.3e} > 1"
        )


def _rhs_norm(W: np.ndarray, c: np.ndarray, pops: np.ndarray, cohs: np.ndarray) -> np.ndarray:
    """Frobenius norm of d(s)/dt for each record of (n, dim) populations and
    (n, k) coherences at rates c: W p on the diagonal, c s_ab at each tracked
    pair and its conjugate at the mirrored one."""
    return np.hypot(np.linalg.norm(pops @ W.T, axis=1),
                    np.sqrt(2.0) * np.linalg.norm(c * cohs, axis=1))


def _min_eig(pops: np.ndarray, cohs: np.ndarray, pairs: tuple) -> np.ndarray:
    """Smallest eigenvalue of each of n states in the eigenbasis, given as
    (n, d) populations p and (n, k) coherences at pairs: min(p) when no
    coherence is tracked, else eigvalsh of the assembled states."""
    return (np.linalg.eigvalsh(_assemble(pops, cohs, pairs)).min(axis=1)
            if cohs.shape[1] else pops.min(axis=1))


def _diagnose(pops: np.ndarray, cohs: np.ndarray, pairs: tuple, top_index: int | None) -> tuple:
    """(trace_dev, min_eig, top_pop), one length-n array each, of n finite
    records in the eigenbasis: (n, d) populations p and (n, k) coherences at
    pairs.  The trace sums p as complex numbers, in the order of a trace;
    min_eig is :func:`_min_eig`."""
    dev = pops.astype(complex).sum(axis=1) - 1.0
    # hypot gives the bits of abs() on one complex trace; np.abs on a complex
    # array can round differently
    trace_dev = np.hypot(dev.real, dev.imag)
    top = pops[:, top_index] if top_index is not None else np.full(len(pops), np.nan)
    return trace_dev, _min_eig(pops, cohs, pairs), top


def propagate(
    spec: RhsSpec,
    rho0,
    t_final: float,
    dt: float,
    method: str = "expm",
    record_every: int = 1,
) -> Trajectory:
    """Propagate rho0 to t_final and record every ``record_every``-th step.

    The run takes n = max(1, round(t_final / dt)) steps of size dt and ends
    at n * dt, not at t_final when dt does not divide it.  The quotient is a
    float rounded half to even: with dt=0.1, t_final=1.05 ends at 1.0 and
    t_final=1.25 at 1.2.  The trajectory always contains t=0 and n * dt.
    ``method='expm'`` applies the exact flow; ``method='rk4'`` takes fixed
    steps.  Raises :class:`PropagationError` on NaN/Inf or when, at a
    recorded time, the right-hand-side norm exceeds 1e6 times its initial
    value or the largest entry of the state in the eigenbasis of H 1e6
    times max(1, its initial value).

    The spec runs as its :class:`SplitGenerator` ``(E, W, C, V)``
    (:attr:`RhsSpec.compiled`, which raises ``ValueError`` for a spec that
    does not split), in which the populations p evolve under W and each
    coherence s_ab under its own rate C[a, b] alone.  rho0 is rotated into
    the eigenbasis of H once, and only the coherences a < b that are nonzero
    there are tracked; the others stay exactly zero.  Every gap of g steps
    between two recorded times applies one population map, built once per
    distinct g: expm(W g dt) for the exact flow, taken by :func:`expm`
    ([13/13] Pade scaling and squaring in NumPy), and R4(dt W)^g for RK4,
    with the RK4 stability polynomial R4 (the map of g classical RK4 steps
    in exact arithmetic).  A tracked coherence at step m is in closed form
    s_ab exp(C[a, b] m dt), or s_ab R4(dt C[a, b])^m for RK4, evaluated
    once for the whole run.  Then every 64 records, one stacked pass checks
    them (NaN/Inf first, then growth, stopping at the first bad record) and
    diagnoses them, so the eigensolve never sees a record that failed a
    check.  The records stay in the eigenbasis (see :class:`Trajectory`),
    and the checks and diagnostics read them there, never rotated out: the
    state norm is the largest |p_a| or |s_ab| (against a cap from the
    rotated-in start), and the diagnostics are those of :func:`_diagnose`.
    Without tracked coherences, as for a Gibbs or level start on a ladder,
    both take O(dim) per record.

    Every spec with amplifying modes warns once, through ``warnings`` and in
    ``Trajectory.warnings``.  For RK4, a mode that the run steps (an
    eigenvalue of W or a tracked C[a, b]) that does not amplify but lies
    outside the stability region raises :class:`PropagationError` before
    the first step.  rho0 is checked first, and ``ValueError`` names the
    first check it fails: shape (dim, dim), Hermiticity within 1e-10, then
    in the eigenbasis a trace of 1 within 1e-9 and a smallest eigenvalue,
    taken as for ``min_eig``, of at least ``MIN_EIG_WARN``.  ``ValueError``
    is also raised unless t_final and dt are positive and finite, the step
    count fits the record index (an ``intp``) and the records fit in
    ``MAX_RECORD_BYTES``; all three are checked before anything is
    allocated for the records.
    """
    raw = np.asarray(rho0, dtype=complex)
    dim = spec.dim
    if raw.shape != (dim, dim):
        raise ValueError(f"initial state has shape {raw.shape}, not ({dim}, {dim})")
    if not is_hermitian(raw, 1e-10):
        raise ValueError("initial state is not Hermitian within 1e-10")
    gen = spec.compiled
    s = gen.rotate_in(herm_part(raw))
    p = s.diagonal().real  # populations of a Hermitian state
    # a coherence is fed only by itself: those zero at the start stay zero
    a, b = np.nonzero(np.triu(s, 1))
    x0 = s[a, b]
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"initial state trace {p.sum():.3e} is not 1 within 1e-9")
    if _min_eig(p[None], x0[None], (a, b))[0] < MIN_EIG_WARN:
        raise ValueError("initial state is not positive semidefinite within -1e-8")
    if method not in ("rk4", "expm"):
        raise ValueError(f"method must be 'rk4' or 'expm', got {method!r}")
    if not (0.0 < dt < np.inf and 0.0 < t_final < np.inf):
        raise ValueError(f"t_final and dt must be positive and finite, got "
                         f"t_final={t_final}, dt={dt}")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    if not t_final / dt < np.iinfo(np.intp).max:
        raise ValueError(f"t_final / dt = {t_final / dt:.6g} steps overflow the record index")
    n_steps = max(1, int(round(t_final / dt)))
    # records at steps 0, r, 2r, ... and n_steps, counted without listing them
    n_records = len(range(0, n_steps + 1, record_every)) + (n_steps % record_every != 0)

    _check_record_bytes(f"{n_records} records of dim {dim}",
                        n_records * (dim * 8 + len(a) * 16 + 32))
    notes = []
    if gen.max_growth > AMPLIFY_TOL:
        notes.append(f"assembled generator has amplifying modes (max Re lambda = "
                     f"{gen.max_growth:.3e}); check the sign of gamma_pd")
        warnings.warn(notes[-1], stacklevel=2)
    c = gen.C[a, b]
    if method == "rk4":
        _check_rk4_stability(np.concatenate([gen.population_eig[0], c]), dt)

    top_index = spec.system.top_level if isinstance(spec.system, LadderSystem) else None
    rhs0_norm = float(_rhs_norm(gen.W, c, p[None], x0[None])[0])
    # starting at (or round-off close to) a fixed point makes relative rhs
    # growth meaningless; the state-norm cap still catches divergence there
    growth_cap = 1e6 * rhs0_norm if rhs0_norm > 1e-12 else np.inf
    state_cap = 1e6 * max(1.0, float(np.abs(s).max()))

    steps = np.arange(n_records) * min(record_every, n_steps)
    steps[-1] = n_steps
    times = steps * dt
    pops = np.empty((n_records, dim))
    pops[0] = p
    diag = np.empty((3, n_records))
    if method == "rk4":
        step_W = _rk4_matrix(dt * gen.W)
    props = {}
    # records are checked after they are all made, so those after a
    # diverging one may overflow before the checks stop the run
    with np.errstate(over="ignore", invalid="ignore"):
        # computed once for the whole run, since vectorized complex exp and
        # products round the last bit by position in the array, and in place,
        # since a temporary of the stack's size would double its memory
        if method == "rk4":
            cohs = np.power(_rk4_polynomial(dt * c), steps[:, None])
        else:
            cohs = np.multiply.outer(times, c)
            np.exp(cohs, out=cohs)
        cohs *= x0
        for i in range(1, n_records):
            gap = record_every if i < n_records - 1 else n_steps - int(steps[-2])
            if gap not in props:
                props[gap] = (np.linalg.matrix_power(step_W, gap) if method == "rk4"
                              else expm(gen.W * (gap * dt)))
            p = pops[i] = props[gap] @ p
        for start in range(0, n_records, _RECORD_CHUNK):
            rows = slice(start, start + _RECORD_CHUNK)
            finite = np.isfinite(pops[rows]).all(axis=1) & np.isfinite(cohs[rows]).all(axis=1)
            rhs = _rhs_norm(gen.W, c, pops[rows], cohs[rows])
            state_norm = np.maximum(np.abs(pops[rows]).max(axis=1),
                                    np.abs(cohs[rows]).max(axis=1, initial=0.0))
            bad = ~finite | ~np.isfinite(rhs) | (rhs > growth_cap) | (state_norm > state_cap)
            if bad.any():
                j = int(np.argmax(bad))
                t = times[start + j]
                if not finite[j]:
                    raise PropagationError(f"NaN/Inf encountered before t={t:.6g}")
                raise PropagationError(
                    f"step instability at t={t:.6g}: rhs norm {rhs[j]:.3e} "
                    f"(initial {rhs0_norm:.3e}), state norm {state_norm[j]:.3e}"
                )
            diag[:, rows] = _diagnose(pops[rows], cohs[rows], (a, b), top_index)
    traj = Trajectory(times, *diag, _pops=pops, _cohs=cohs, _pairs=(a, b), _gen=gen,
                      warnings=notes)

    worst_eig = traj.min_eig.min()
    if worst_eig < MIN_EIG_WARN:
        traj.warnings.append(
            f"positivity violated: min eigenvalue {worst_eig:.3e} < {MIN_EIG_WARN:.0e}"
        )
    if top_index is not None and np.nanmax(traj.top_pop) > TOP_POP_WARN:
        traj.warnings.append(
            f"truncation leak: top-level population reached "
            f"{np.nanmax(traj.top_pop):.3e} > {TOP_POP_WARN:.0e}"
        )
    return traj
