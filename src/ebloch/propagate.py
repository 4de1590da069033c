"""Time evolution under any RhsSpec: fixed-step RK4, exact exponential,
trajectory recording and physicality monitoring.

Every spec is stepped through its :class:`SplitGenerator`
(:attr:`RhsSpec.compiled`) in the eigenbasis of H: a rate matrix on the
populations and one rate per coherence.  The trace is never renormalized
and eigenvalues are never clipped; drift and negativity are diagnostics,
not noise to hide.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .dissipators import RhsSpec, SplitGenerator
from .linalg import herm_part, is_hermitian, is_psd

AMPLIFY_TOL = 1e-10
MIN_EIG_WARN = -1e-8
TOP_POP_WARN = 1e-6
# records checked, rotated out and diagnosed per stacked pass; all records at
# once would hold the diagnostics' temporaries for the whole run
_RECORD_CHUNK = 64
# largest record stack a run may allocate, in bytes: its states (dim * 8 per
# record as populations, dim^2 * 16 as matrices) plus its time and four
# diagnostics (40 per record)
MAX_RECORD_BYTES = 1 << 30


class PropagationError(RuntimeError):
    """Numerical failure during time evolution (NaN/Inf or divergence)."""


@dataclass
class Trajectory:
    """Recorded time grid, density-matrix snapshots and per-record diagnostics.

    ``states`` is the (n_times, dim, dim) stack of recorded density matrices;
    ``trace_dev``, ``herm_dev``, ``min_eig`` and ``top_pop`` (NaN without a
    ladder) hold one value per recorded time.  A run from a coherence-free
    start (see :func:`propagate`) records only the (n_times, dim) stack of
    its populations; :meth:`populations` returns a copy of it and
    ``states`` builds diag(p) for each record anew whenever it is read.
    """

    times: np.ndarray
    trace_dev: np.ndarray
    herm_dev: np.ndarray
    min_eig: np.ndarray
    top_pop: np.ndarray
    # (n_times, dim) populations or (n_times, dim, dim) states
    _records: np.ndarray = field(repr=False)
    warnings: list = field(default_factory=list)

    @property
    def states(self) -> np.ndarray:
        if self._records.ndim == 3:
            return self._records
        n, dim = self._records.shape
        out = np.zeros((n, dim, dim), dtype=complex)
        out[:, np.arange(dim), np.arange(dim)] = self._records
        return out

    def populations(self) -> np.ndarray:
        """(n_times, dim) array of diagonal entries (real parts)."""
        if self._records.ndim == 2:
            return self._records.copy()
        return self._records.diagonal(axis1=1, axis2=2).real.copy()


def _rk4_polynomial(z):
    """R4(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, the map of one classical RK4
    step of dy/dt = lambda y at z = dt * lambda; elementwise on arrays."""
    return 1.0 + z * (1.0 + z * (1.0 + z * (1.0 + z / 4.0) / 3.0) / 2.0)


def _rk4_matrix(Z: np.ndarray) -> np.ndarray:
    """R4(Z) for a square matrix Z, so that one RK4 step of dp/dt = W p is
    p <- R4(dt W) p."""
    eye = np.eye(len(Z))
    return eye + Z @ (eye + Z @ (eye + Z @ (eye + Z / 4.0) / 3.0) / 2.0)


def _conj_symmetric(F: np.ndarray) -> np.ndarray:
    """Coherence factors with F[b, a] = conj(F[a, b]) exactly and a zero
    diagonal, so the stepped coherences keep the Hermitian symmetry of the
    state they start from.  W evolves the diagonal, so zeroing it loses
    nothing."""
    upper = np.triu(F, 1)
    return upper + upper.conj().T


def _check_rk4_stability(gen: SplitGenerator, dt: float) -> None:
    """Raise before stepping when a non-amplifying mode (Re lambda <=
    AMPLIFY_TOL, oscillatory ones included) grows by more than the
    1 + dt * AMPLIFY_TOL per step that the amplifying check tolerates."""
    modes = gen.spectrum
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


def _validate_state(rho: np.ndarray) -> None:
    if not is_hermitian(rho, 1e-10):
        raise ValueError("initial state is not Hermitian within 1e-10")
    if abs(rho.trace() - 1.0) > 1e-9:
        raise ValueError(f"initial state trace {rho.trace():.3e} is not 1 within 1e-9")
    if not is_psd(rho, 1e-8):
        raise ValueError("initial state is not positive semidefinite within -1e-8")


def _diagnose(records: np.ndarray, top_index: int | None) -> tuple:
    """(trace_dev, herm_dev, min_eig, top_pop) of each record of a stack of
    finite records, one length-n array each.  The records are (n, d, d)
    states, or the (n, d) populations p of states diag(p): for those the same
    formulas take O(d) per record and give the same bits, since the
    eigenvalues of diag(p) are p itself and p summed as complex numbers adds
    in the order of the trace."""
    if records.ndim == 2:
        p = records
        dev = p.astype(complex).sum(axis=1) - 1.0
        herm_dev = np.zeros(len(p))
        min_eig = p.min(axis=1)
    else:
        p = records.diagonal(axis1=1, axis2=2).real
        dev = np.trace(records, axis1=1, axis2=2) - 1.0
        herm_dev = np.abs(records - records.conj().swapaxes(1, 2)).max(axis=(1, 2))
        min_eig = np.linalg.eigvalsh(herm_part(records)).min(axis=1)
    # hypot gives the bits of abs() on one complex trace; np.abs on a complex
    # array can round differently
    trace_dev = np.hypot(dev.real, dev.imag)
    top = p[:, top_index] if top_index is not None else np.full(len(p), np.nan)
    return trace_dev, herm_dev, min_eig, top


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
    value or the largest state entry 1e6 times max(1, its initial value).

    The spec runs as its :class:`SplitGenerator` ``(W, C, V)``
    (:attr:`RhsSpec.compiled`, which raises ``ValueError`` for a spec that
    does not split): rho0 is rotated into the eigenbasis of H once and each
    recorded state out once, V s V^dag.  Every gap of g steps between two
    recorded times is one linear map, built once per distinct g:
    expm(W g dt) on the populations and exp(C g dt) on the coherences for
    the exact flow, and for RK4 R4(dt W)^g and R4(dt C_ab)^g with the RK4
    stability polynomial R4 (the map of g classical RK4 steps in exact
    arithmetic).  The growth check takes the right-hand side from the same
    generator, :meth:`SplitGenerator.apply`.  The gap loop only applies the
    maps and stores each record; every 64 records, one stacked pass checks
    them (NaN/Inf first, then growth, stopping at the first bad record),
    rotates them out into the ``states`` stack and diagnoses them, so the
    eigensolve never sees a record that failed a check.

    A coherence is fed by nothing but itself, so a start with no coherences
    keeps none.  When H is exactly diagonal (``V`` is None) and every
    off-diagonal entry of rho0 is zero, as for a Gibbs or level start on a
    ladder, the run records populations only: each gap applies the
    population map alone, and the checks (with the rhs norm |W p|) and the
    diagnostics take O(dim) per record, with the bits of the full-matrix
    formulas.  Such a run completes even where exp(C g dt) would overflow.

    Every spec warns once about amplifying modes and, for RK4, raises
    :class:`PropagationError` before the first step when a non-amplifying
    mode lies outside the stability region.  Raises ``ValueError`` unless
    t_final and dt are positive and finite, the step count fits the record
    index (an ``intp``) and the records fit in ``MAX_RECORD_BYTES``; all
    three are checked before anything is allocated for the records.
    """
    raw = np.asarray(rho0, dtype=complex)
    _validate_state(raw)
    rho = herm_part(raw)
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

    gen = spec.compiled
    dim = spec.dim
    s = gen.rotate_in(rho)
    p = s.diagonal().real  # populations of a Hermitian state
    pops_only = gen.V is None and not np.count_nonzero(s - np.diag(s.diagonal()))
    record_bytes = n_records * ((dim * 8 if pops_only else dim * dim * 16) + 40)
    if record_bytes > MAX_RECORD_BYTES:
        raise ValueError(
            f"{n_records} records of dim {dim} need {record_bytes:.3g} bytes, over "
            f"the record limit of {MAX_RECORD_BYTES:.3g}; raise record_every or shorten the run")
    if gen.max_growth > AMPLIFY_TOL:
        warnings.warn(
            f"assembled generator has amplifying modes (max Re lambda = "
            f"{gen.max_growth:.3e}); check the sign of gamma_pd",
            stacklevel=2,
        )
    if method == "rk4":
        _check_rk4_stability(gen, dt)

    top_index = spec.ladder.top_level if spec.ladder is not None else None
    rhs0_norm = float(np.linalg.norm(gen.W @ p if pops_only else gen.apply(s)))
    # starting at (or round-off close to) a fixed point makes relative rhs
    # growth meaningless; the state-norm cap still catches divergence there
    growth_cap = 1e6 * rhs0_norm if rhs0_norm > 1e-12 else np.inf
    state_cap = 1e6 * max(1.0, float(np.abs(rho).max()))

    steps = np.arange(n_records) * min(record_every, n_steps)
    steps[-1] = n_steps
    times = steps * dt
    if pops_only:
        records = np.empty((n_records, dim))
        chunk = records  # the gap loop writes each record in place
    else:
        records = np.empty((n_records, dim, dim), dtype=complex)
        chunk = np.empty((min(_RECORD_CHUNK, n_records), dim, dim), dtype=complex)
    diag = np.empty((4, n_records))

    def flush(start: int, n: int) -> None:
        """Check the n records from record ``start`` on, stopping at the
        first bad one, then rotate them out of the eigenbasis ``chunk[:n]``
        into ``records`` (populations are written there in place) and
        diagnose them."""
        block = records[start:start + n] if pops_only else chunk[:n]
        axes = tuple(range(1, block.ndim))
        finite = np.isfinite(block).all(axis=axes)
        rhs = block @ gen.W.T if pops_only else gen.apply(block)
        rhs_norm = np.linalg.norm(rhs, axis=axes)
        out = block if pops_only else gen.rotate_out(block)
        state_norm = np.abs(out).max(axis=axes)
        bad = ~finite | ~np.isfinite(rhs_norm) | (rhs_norm > growth_cap) \
            | (state_norm > state_cap)
        if bad.any():
            j = int(np.argmax(bad))
            t = times[start + j]
            if not finite[j]:
                raise PropagationError(f"NaN/Inf encountered before t={t:.6g}")
            raise PropagationError(
                f"step instability at t={t:.6g}: rhs norm {rhs_norm[j]:.3e} "
                f"(initial {rhs0_norm:.3e}), state norm {state_norm[j]:.3e}"
            )
        if not pops_only:
            records[start:start + n] = out
        diag[:, start:start + n] = _diagnose(records[start:start + n], top_index)

    chunk[0] = p if pops_only else s
    X = chunk[0]  # F * X zeroes the diagonal, so X may carry the populations
    start, filled = 0, 1
    if method == "rk4":
        step_W = _rk4_matrix(dt * gen.W)
        step_C = None if pops_only else _rk4_polynomial(dt * gen.C)
    props = {}
    # a chunk is checked only once it is full, so the records after a
    # diverging one may overflow before the check stops the run
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_records):
            gap = record_every if i < n_records - 1 else n_steps - int(steps[-2])
            if gap not in props:
                if method == "rk4":
                    props[gap] = (np.linalg.matrix_power(step_W, gap),
                                  None if pops_only else _conj_symmetric(step_C ** gap))
                else:
                    props[gap] = (scipy.linalg.expm(gen.W * (gap * dt)), None if pops_only
                                  else _conj_symmetric(np.exp(gen.C * (gap * dt))))
            P, F = props[gap]
            if filled == _RECORD_CHUNK:
                flush(start, filled)
                start, filled = start + filled, 0
            p = P @ p
            if pops_only:
                records[i] = p
            else:
                X = np.multiply(F, X, out=chunk[filled])
                X.flat[:: dim + 1] = p
            filled += 1
        flush(start, filled)

    traj = Trajectory(
        times=times,
        trace_dev=diag[0],
        herm_dev=diag[1],
        min_eig=diag[2],
        top_pop=diag[3],
        _records=records,
    )
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
