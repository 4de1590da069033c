"""Time evolution under any RhsSpec: its exact flow, trajectory recording
and physicality monitoring.

Every spec is stepped through its :class:`SplitGenerator`
(:attr:`RhsSpec.compiled`) in the eigenbasis of H: a rate matrix on the
populations and one rate per coherence.  The trace is never renormalized
and eigenvalues are never clipped; drift and negativity are diagnostics,
not noise to hide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dissipators import RhsSpec, SplitGenerator
from .linalg import herm_part, is_hermitian
from .systems import LadderSystem

MIN_EIG_WARN = -1e-8
TOP_POP_WARN = 1e-6
# records per stacked check-and-diagnose pass: as many as fill this many
# bytes at 16 d^2 per record when coherences are tracked (the stack that
# _min_eig assembles and eigensolves) and 16 d otherwise (the complex copy of
# the populations that _diagnose sums), so that a pass peaks near this budget
_CHECK_BYTES = 1 << 20
# flops that one product call's fixed overhead is counted as: about 2.5 us,
# or 1e5 flops at the 40 GFLOP/s that squaring reaches (one x86-64 core with
# OpenBLAS, d = 8 to 256).  Squaring a d x d record map, 2 d^3 flops, pays
# once it saves 2 d^3 / _CALL_FLOPS calls.  A call's cost grows with d^2
# besides, so at large d the rule squares less than it could, never more
_CALL_FLOPS = 1 << 16
# largest record stack a run may allocate, in bytes: per record, dim * 8 for
# the populations, 16 per tracked coherence and 32 for the time and the three
# diagnostics
MAX_RECORD_BYTES = 1 << 30


def __getattr__(name):
    # perfbench's tracer reads propagate.scipy when it installs, and nothing
    # else does, so SciPy is imported only then; ROADMAP item 1a deletes this
    # along with the tracer's scipy.linalg.expm overlay
    if name == "scipy":
        import scipy
        return scipy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class PropagationError(RuntimeError):
    """Numerical failure during time evolution (non-stochastic map or NaN/Inf)."""


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
    out of the eigenbasis in place anew whenever it is read; a read whose
    stack would exceed ``MAX_RECORD_BYTES`` raises ``ValueError`` before
    allocating.
    :meth:`populations` reads the records, never ``states``, and so does
    :meth:`upper_triangle` when V is None.  ``warnings`` lists every
    warning of the run.
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
        s = _assemble(self._pops, self._cohs, self._pairs)
        if self._gen.V is not None:
            # rotated in place, in passes of _CHECK_BYTES: the two products
            # of a pass take one pass of bytes each, not a stack each
            step = max(1, _CHECK_BYTES // (16 * dim * dim))
            for lo in range(0, n, step):
                s[lo:lo + step] = self._gen.rotate_out(s[lo:lo + step])
        return s

    def upper_triangle(self) -> np.ndarray:
        """(n_times, dim (dim - 1) / 2) entries of ``states`` above the
        diagonal, in ``np.triu_indices(dim, 1)`` order, under the bound of
        ``states``.  When V is None they are read from the records, zero
        where no coherence is tracked, and ``states`` is not assembled."""
        n, dim = self._pops.shape
        if self._gen.V is not None:
            return self.states[:, np.arange(dim)[:, None] < np.arange(dim)]
        _check_record_bytes(f"{n} states of dim {dim}", n * dim * dim * 16)
        z = np.zeros((n, dim * (dim - 1) // 2), dtype=complex)
        a, b = self._pairs
        z[:, a * dim - a * (a + 1) // 2 + b - a - 1] = self._cohs
        return z

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
    # conjugated in place, where cohs.conj() would take half the stack again
    s[:, b, a] = cohs
    np.conjugate(s, out=s)
    s[:, a, b] = cohs
    return s


def _check_record_bytes(what: str, nbytes: int) -> None:
    if nbytes > MAX_RECORD_BYTES:
        raise ValueError(f"{what} need {nbytes:.3g} bytes, over the record limit of "
                         f"{MAX_RECORD_BYTES:.3g}; raise record_every or shorten the run")


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


def _record_map(W: np.ndarray, gap: int, dt: float) -> np.ndarray:
    """expm(W gap dt), the population map of ``gap`` steps; raises
    :class:`PropagationError` where scaling and squaring a stiff W leaves a
    finite map that is not column stochastic within 1e-9."""
    M = expm(W * (gap * dt))
    err = np.abs(M.sum(axis=0) - 1.0).max()
    if 1e-9 < err < np.inf:  # NaN and inf are left to the check of the records
        raise PropagationError(f"the population map of a {gap}-step gap is not stochastic: "
                               f"its column sums differ from 1 by up to {err:.3g}")
    return M


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
    record_every: int = 1,
) -> Trajectory:
    """Propagate rho0 to t_final and record every ``record_every``-th step.

    The run takes n = max(1, round(t_final / dt)) steps of size dt and ends
    at n * dt, not at t_final when dt does not divide it.  The quotient is a
    float rounded half to even: with dt=0.1, t_final=1.05 ends at 1.0 and
    t_final=1.25 at 1.2.  The trajectory always contains t=0 and n * dt.
    Raises :class:`PropagationError` on a finite record map that is not
    column stochastic within 1e-9 and on a NaN/Inf record.

    The spec runs as its :class:`SplitGenerator` (:attr:`RhsSpec.compiled`,
    which raises ``ValueError`` for a spec that does not split), in which
    the populations p evolve under W and each coherence s_ab under its own
    rate C_ab alone.  rho0 is rotated into the eigenbasis of H once, and
    only the coherences a < b that are nonzero there are tracked, their
    rates read from ``rates``; the others stay exactly zero.  A gap of g steps
    between two recorded times has one population map M, built once per
    distinct g: expm(W g dt), taken by :func:`expm` ([13/13] Pade scaling
    and squaring in NumPy).  The records that follow the start
    ``record_every`` steps apart are made by doubling their map: with
    F = M^h, rows [f, f + h) are rows [f - h, f) times F^T, one product
    call each, and F is squared when f reaches 2h while the squaring, 2 d^3
    flops, costs less than the overhead of the calls it saves
    (``_CALL_FLOPS`` each).  A run with too few records for its d never
    squares, and each record is then M times the last.  A final shorter
    gap applies its own map once.  A tracked coherence at step m is in
    closed form s_ab exp(C_ab m dt), evaluated once for the whole run; a
    spec is accepted only with gamma_pd <= 0, so Re C_ab <= 0 and no
    coherence grows.  Stacked passes then check the records for NaN/Inf,
    which a finite W times a long gap can still give, and diagnose them,
    so the eigensolve never sees a non-finite record.  A pass takes as many
    records as fill ``_CHECK_BYTES`` at 16 d^2 bytes each with tracked
    coherences and 16 d without, the size of its largest temporaries, so a
    pass peaks near that budget whatever the run's length.
    The records stay in the eigenbasis (see :class:`Trajectory`), and the
    diagnostics of :func:`_diagnose` read them there, never rotated out.
    Without tracked coherences, as for a Gibbs or level start on a ladder,
    they take O(dim) per record.

    rho0 is checked first, and ``ValueError`` names the first check it
    fails: shape (dim, dim), Hermiticity within 1e-10 relative, then in the
    eigenbasis a trace of 1 within 1e-9 and a smallest eigenvalue, taken as
    for ``min_eig``, of at least ``MIN_EIG_WARN``.  ``ValueError`` is also
    raised unless t_final and dt are positive and finite, record_every an
    integer >= 1, the step count fits the record index (an ``intp``) and
    the records fit in ``MAX_RECORD_BYTES``; all four are checked before
    anything is allocated for the records.
    """
    raw = np.asarray(rho0, dtype=complex)
    dim = spec.dim
    if raw.shape != (dim, dim):
        raise ValueError(f"initial state has shape {raw.shape}, not ({dim}, {dim})")
    if not is_hermitian(raw):
        raise ValueError("initial state is not Hermitian within 1e-10")
    gen = spec.compiled
    s = gen.rotate_in(herm_part(raw))
    p = s.diagonal().real  # populations of a Hermitian state
    # a coherence is fed only by itself: those zero at the start stay zero
    a, b = np.nonzero(np.triu(s != 0, 1))
    x0 = s[a, b]
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"initial state trace {p.sum():.3e} is not 1 within 1e-9")
    if _min_eig(p[None], x0[None], (a, b))[0] < MIN_EIG_WARN:
        raise ValueError("initial state is not positive semidefinite within -1e-8")
    if not (0.0 < dt < np.inf and 0.0 < t_final < np.inf):
        raise ValueError(f"t_final and dt must be positive and finite, got "
                         f"t_final={t_final}, dt={dt}")
    if not isinstance(record_every, (int, np.integer)) or record_every < 1:
        raise ValueError(f"record_every must be an integer >= 1, got {record_every!r}")
    if not t_final / dt < np.iinfo(np.intp).max:
        raise ValueError(f"t_final / dt = {t_final / dt:.6g} steps overflow the record index")
    n_steps = max(1, int(round(t_final / dt)))
    # records at steps 0, r, 2r, ... and n_steps, counted without listing them
    n_records = len(range(0, n_steps + 1, record_every)) + (n_steps % record_every != 0)

    _check_record_bytes(f"{n_records} records of dim {dim}",
                        n_records * (dim * 8 + len(a) * 16 + 32))
    c = gen.rates(a, b)

    top_index = spec.system.N - 1 if isinstance(spec.system, LadderSystem) else None

    steps = np.arange(n_records) * min(record_every, n_steps)
    steps[-1] = n_steps
    times = steps * dt
    pops = np.empty((n_records, dim))
    pops[0] = p
    diag = np.empty((3, n_records))
    last_gap = n_steps - int(steps[-2])
    # rows [0, m) lie record_every steps apart
    m = n_records - (last_gap != record_every)
    # a finite W times a long gap can overflow: the checks below stop the run
    with np.errstate(over="ignore", invalid="ignore"):
        # computed once for the whole run, since vectorized complex exp and
        # products round the last bit by position in the array, and in place,
        # since a temporary of the stack's size would double its memory
        cohs = np.multiply.outer(times, c)
        np.exp(cohs, out=cohs)
        cohs *= x0
        # with F = M^h, rows [f, f + h) are rows [f - h, f) times F^T; F is
        # squared at f = 2h while that costs less than the calls it saves
        F = _record_map(gen.W, record_every, dt) if m > 1 else None
        h = f = 1
        while f < m:
            k = min(h, m - f)
            np.matmul(pops[f - h:f - h + k], F.T, out=pops[f:f + k])
            f += k
            if f == 2 * h and h < m - f and 4 * h * dim**3 <= _CALL_FLOPS * (m - f):
                F, h = F @ F, 2 * h
        if m < n_records:
            pops[-1] = _record_map(gen.W, last_gap, dt) @ pops[-2]
        per_record = 16 * dim * dim if len(a) else 16 * dim
        chunk = max(1, _CHECK_BYTES // per_record)
        for start in range(0, n_records, chunk):
            rows = slice(start, start + chunk)
            finite = np.isfinite(pops[rows]).all(axis=1) & np.isfinite(cohs[rows]).all(axis=1)
            if not finite.all():
                t = times[start + int(np.argmin(finite))]
                raise PropagationError(f"NaN/Inf encountered before t={t:.6g}")
            diag[:, rows] = _diagnose(pops[rows], cohs[rows], (a, b), top_index)
    traj = Trajectory(times, *diag, _pops=pops, _cohs=cohs, _pairs=(a, b), _gen=gen)

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
