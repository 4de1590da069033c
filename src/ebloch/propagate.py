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
import scipy  # scipy.linalg loads on first use, at the first expm map

from .dissipators import RhsSpec, SplitGenerator
from .linalg import herm_part, is_hermitian, is_psd

AMPLIFY_TOL = 1e-10
MIN_EIG_WARN = -1e-8
TOP_POP_WARN = 1e-6
# records checked, rotated out and diagnosed per stacked pass; all records at
# once would hold the diagnostics' temporaries for the whole run
_RECORD_CHUNK = 64
# largest record stack a run may allocate, in bytes: per record, dim * 8 for
# the populations, 16 per tracked coherence and 40 for the time and the four
# diagnostics
MAX_RECORD_BYTES = 1 << 30


class PropagationError(RuntimeError):
    """Numerical failure during time evolution (NaN/Inf or divergence)."""


@dataclass
class Trajectory:
    """Recorded time grid, states and per-record diagnostics.

    ``trace_dev``, ``herm_dev``, ``min_eig`` and ``top_pop`` (NaN without a
    ladder) hold one value per recorded time.  The records are kept in the
    eigenbasis of H as the (n_times, dim) populations and the (n_times, k)
    coherences s_ab of the k pairs a < b that are nonzero at the start;
    every other coherence is zero for all time.  ``states`` assembles the
    (n_times, dim, dim) stack of density matrices from them, with s_ba =
    conj(s_ab), and rotates it out of the eigenbasis anew whenever it is
    read; a read whose stack would exceed ``MAX_RECORD_BYTES`` raises
    ``ValueError`` before allocating.  :meth:`populations` returns a copy of
    the population stack when H is exactly diagonal, and reads ``states``
    otherwise.
    """

    times: np.ndarray
    trace_dev: np.ndarray
    herm_dev: np.ndarray
    min_eig: np.ndarray
    top_pop: np.ndarray
    _pops: np.ndarray = field(repr=False)
    _cohs: np.ndarray = field(repr=False)
    _pairs: tuple = field(repr=False)  # (a, b) index arrays of the coherences
    _gen: SplitGenerator = field(repr=False)
    warnings: list = field(default_factory=list)

    def _states(self, rows=slice(None)) -> np.ndarray:
        """The records ``rows`` as (n, dim, dim) states in the original basis."""
        pops, cohs = self._pops[rows], self._cohs[rows]
        n, dim = pops.shape
        s = np.zeros((n, dim, dim), dtype=complex)
        s[:, np.arange(dim), np.arange(dim)] = pops
        a, b = self._pairs
        s[:, a, b] = cohs
        s[:, b, a] = cohs.conj()
        return self._gen.rotate_out(s)

    @property
    def states(self) -> np.ndarray:
        n, dim = self._pops.shape
        _check_record_bytes(f"{n} states of dim {dim}", n * dim * dim * 16)
        return self._states()

    def populations(self) -> np.ndarray:
        """(n_times, dim) array of diagonal entries (real parts)."""
        if self._gen.V is None:
            return self._pops.copy()
        return self.states.diagonal(axis1=1, axis2=2).real.copy()


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


def _validate_state(rho: np.ndarray) -> None:
    if not is_hermitian(rho, 1e-10):
        raise ValueError("initial state is not Hermitian within 1e-10")
    if abs(rho.trace() - 1.0) > 1e-9:
        raise ValueError(f"initial state trace {rho.trace():.3e} is not 1 within 1e-9")
    if not is_psd(rho, 1e-8):
        raise ValueError("initial state is not positive semidefinite within -1e-8")


def _rhs_norm(W: np.ndarray, c: np.ndarray, pops: np.ndarray, cohs: np.ndarray) -> np.ndarray:
    """Frobenius norm of d(s)/dt for each record of (n, dim) populations and
    (n, k) coherences at rates c: W p on the diagonal, c s_ab at each tracked
    pair and its conjugate at the mirrored one."""
    return np.hypot(np.linalg.norm(pops @ W.T, axis=1),
                    np.sqrt(2.0) * np.linalg.norm(c * cohs, axis=1))


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
    does not split), in which the populations p evolve under W and each
    coherence s_ab under its own rate C[a, b] alone.  rho0 is rotated into
    the eigenbasis of H once, and only the coherences a < b that are nonzero
    there are tracked; the others stay exactly zero.  Every gap of g steps
    between two recorded times applies one population map, built once per
    distinct g: expm(W g dt) for the exact flow, R4(dt W)^g for RK4, with
    the RK4 stability polynomial R4 (the map of g classical RK4 steps in
    exact arithmetic).  A tracked coherence at step m is in closed form
    s_ab exp(C[a, b] m dt), or s_ab R4(dt C[a, b])^m for RK4, evaluated
    once for the whole run.  Then every 64 records, one stacked pass checks
    them (NaN/Inf first, then growth, stopping at the first bad record) and
    diagnoses them, so the eigensolve never sees a record that failed a
    check.  The records stay in the eigenbasis (see :class:`Trajectory`).
    When H is exactly diagonal (``V`` is None) and no coherence is tracked,
    as for a Gibbs or level start on a ladder, the checks (with the rhs norm
    |W p|) and the diagnostics take O(dim) per record, with the bits of the
    full-matrix formulas; otherwise each record of the pass is assembled
    and rotated out, V s V^dag.

    Every spec warns once about amplifying modes.  For RK4, a mode that the
    run steps (an eigenvalue of W or a tracked C[a, b]) that does not
    amplify but lies outside the stability region raises
    :class:`PropagationError` before the first step.  Raises ``ValueError``
    unless t_final and dt are positive and finite, the step count fits the
    record index (an ``intp``) and the records fit in ``MAX_RECORD_BYTES``;
    all three are checked before anything is allocated for the records.
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
    # a coherence is fed only by itself: those zero at the start stay zero
    a, b = np.nonzero(np.triu(s, 1))
    _check_record_bytes(f"{n_records} records of dim {dim}",
                        n_records * (dim * 8 + len(a) * 16 + 40))
    if gen.max_growth > AMPLIFY_TOL:
        warnings.warn(
            f"assembled generator has amplifying modes (max Re lambda = "
            f"{gen.max_growth:.3e}); check the sign of gamma_pd",
            stacklevel=2,
        )
    c = gen.C[a, b]
    if method == "rk4":
        _check_rk4_stability(np.concatenate([gen.population_eig[0], c]), dt)

    top_index = spec.ladder.top_level if spec.ladder is not None else None
    x0 = s[a, b]
    rhs0_norm = float(_rhs_norm(gen.W, c, p[None], x0[None])[0])
    # starting at (or round-off close to) a fixed point makes relative rhs
    # growth meaningless; the state-norm cap still catches divergence there
    growth_cap = 1e6 * rhs0_norm if rhs0_norm > 1e-12 else np.inf
    state_cap = 1e6 * max(1.0, float(np.abs(rho).max()))

    steps = np.arange(n_records) * min(record_every, n_steps)
    steps[-1] = n_steps
    times = steps * dt
    pops = np.empty((n_records, dim))
    pops[0] = p
    diag = np.empty((4, n_records))
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
                              else scipy.linalg.expm(gen.W * (gap * dt)))
            p = pops[i] = props[gap] @ p
        traj = Trajectory(times, *diag, _pops=pops, _cohs=cohs, _pairs=(a, b), _gen=gen)
        for start in range(0, n_records, _RECORD_CHUNK):
            rows = slice(start, start + _RECORD_CHUNK)
            records = traj._states(rows) if gen.V is not None or len(a) else pops[rows]
            axes = tuple(range(1, records.ndim))
            finite = np.isfinite(pops[rows]).all(axis=1) & np.isfinite(cohs[rows]).all(axis=1)
            rhs = _rhs_norm(gen.W, c, pops[rows], cohs[rows])
            state_norm = np.abs(records).max(axis=axes)
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
            diag[:, rows] = _diagnose(records, top_index)

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
