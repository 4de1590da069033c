"""Time evolution under any RhsSpec: fixed-step RK4, exact exponential,
trajectory recording and physicality monitoring.

Every spec is stepped through its :class:`SplitGenerator`
(:attr:`RhsSpec.compiled`) in the eigenbasis of H: a rate matrix on the
populations and one rate per coherence.  :func:`build_superoperator` and
:func:`step_rk4` are independent oracles for it, used by the tests and
:mod:`ebloch.bench`.  The trace is never renormalized and eigenvalues are
never clipped; drift and negativity are diagnostics, not noise to hide.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .dissipators import RhsSpec, SplitGenerator, master_rhs
from .linalg import herm_part, is_hermitian, is_psd

MAX_SUPEROP_DIM = 64
AMPLIFY_TOL = 1e-10
MIN_EIG_WARN = -1e-8
TOP_POP_WARN = 1e-6


class PropagationError(RuntimeError):
    """Numerical failure during time evolution (NaN/Inf or divergence)."""


@dataclass
class Trajectory:
    """Recorded time grid, density-matrix snapshots and per-step diagnostics."""

    times: np.ndarray
    states: list
    trace_dev: np.ndarray
    herm_dev: np.ndarray
    min_eig: np.ndarray
    top_pop: np.ndarray
    warnings: list = field(default_factory=list)

    def populations(self) -> np.ndarray:
        """(n_times, dim) array of diagonal entries (real parts)."""
        return np.array([np.diag(s).real for s in self.states])


def step_rk4(spec: RhsSpec, rho, dt: float) -> np.ndarray:
    """One classical RK4 step of d(rho)/dt = master_rhs(rho), followed by
    symmetrization rho <- (rho + rho^dag)/2.  Aborts on NaN/Inf."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    k1 = master_rhs(rho, spec)
    k2 = master_rhs(rho + (0.5 * dt) * k1, spec)
    k3 = master_rhs(rho + (0.5 * dt) * k2, spec)
    k4 = master_rhs(rho + dt * k3, spec)
    out = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out = herm_part(out)
    if not np.all(np.isfinite(out.view(float))):
        raise PropagationError("NaN/Inf encountered in RK4 step")
    return out


def build_superoperator(spec: RhsSpec) -> np.ndarray:
    """Matrix S of the linear map rho -> master_rhs(rho) in the
    column-stacking convention: vectorize(master_rhs(rho)) = S @ vectorize(rho).

    An oracle for :attr:`RhsSpec.compiled`, which :func:`propagate` and
    :func:`ebloch.stationary.fixed_point` use instead.  Built by one call of
    the right-hand side on the stack of the dim^2 matrix units; guarded at
    dim <= 64.  The unit stack, its images and the kernel's temporaries are
    held at once, about five times the memory of S at dim 32 (some 1.3 GB
    at dim 64, where S is 268 MB, by scaling).  It inspects no spectrum.
    """
    dim = spec.dim
    if dim > MAX_SUPEROP_DIM:
        raise ValueError(f"superoperator guard: dim={dim} exceeds {MAX_SUPEROP_DIM}")
    # unit k = a + b * dim is |a><b|; row k of the transposed images is the
    # column-stacked image of unit k
    images = master_rhs(np.eye(dim * dim, dtype=complex).reshape(-1, dim, dim)
                        .transpose(0, 2, 1), spec)
    return images.transpose(0, 2, 1).reshape(dim * dim, -1).T


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


def _diagnose(rho: np.ndarray, top_index: int | None):
    trace_dev = abs(rho.trace() - 1.0)
    herm_dev = float(np.abs(rho - rho.conj().T).max())
    min_eig = float(np.linalg.eigvalsh(herm_part(rho)).min())
    top = float(rho[top_index, top_index].real) if top_index is not None else np.nan
    return float(trace_dev), herm_dev, min_eig, top


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
    stability polynomial R4 (the map of g :func:`step_rk4` steps in exact
    arithmetic).  The growth check takes the right-hand side from the same
    generator, :meth:`SplitGenerator.apply`.  Every spec warns once about
    amplifying modes and, for RK4, raises :class:`PropagationError` before
    the first step when a non-amplifying mode lies outside the stability
    region.
    """
    raw = np.asarray(rho0, dtype=complex)
    _validate_state(raw)
    rho = herm_part(raw)
    if method not in ("rk4", "expm"):
        raise ValueError(f"method must be 'rk4' or 'expm', got {method!r}")
    if dt <= 0.0 or t_final <= 0.0:
        raise ValueError("t_final and dt must be positive")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    n_steps = max(1, int(round(t_final / dt)))
    record_idx = list(range(0, n_steps + 1, record_every))
    if record_idx[-1] != n_steps:
        record_idx.append(n_steps)

    gen = spec.compiled
    if gen.max_growth > AMPLIFY_TOL:
        warnings.warn(
            f"assembled generator has amplifying modes (max Re lambda = "
            f"{gen.max_growth:.3e}); check the sign of gamma_pd",
            stacklevel=2,
        )
    if method == "rk4":
        _check_rk4_stability(gen, dt)

    top_index = spec.ladder.top_level if spec.ladder is not None else None
    s = gen.rotate_in(rho)
    rhs0_norm = float(np.linalg.norm(gen.apply(s)))
    # starting at (or round-off close to) a fixed point makes relative rhs
    # growth meaningless; the state-norm cap still catches divergence there
    growth_cap = 1e6 * rhs0_norm if rhs0_norm > 1e-12 else np.inf
    state_cap = 1e6 * max(1.0, float(np.abs(rho).max()))

    times, states = [], []
    diag_rows = []

    def record(k: int, s: np.ndarray) -> None:
        state = gen.rotate_out(s)
        times.append(k * dt)
        states.append(state)
        diag_rows.append(_diagnose(state, top_index))
        rhs_norm = float(np.linalg.norm(gen.apply(s)))
        if not np.isfinite(rhs_norm) or rhs_norm > growth_cap \
                or float(np.abs(state).max()) > state_cap:
            raise PropagationError(
                f"step instability at t={k * dt:.6g}: rhs norm {rhs_norm:.3e} "
                f"(initial {rhs0_norm:.3e}), state norm {np.abs(state).max():.3e}"
            )

    record(0, s)
    p = s.diagonal().real  # populations of a Hermitian state
    X = s.copy()
    np.fill_diagonal(X, 0.0)
    if method == "rk4":
        step_W, step_C = _rk4_matrix(dt * gen.W), _rk4_polynomial(dt * gen.C)
    props = {}
    for prev, k in zip(record_idx, record_idx[1:]):
        gap = k - prev
        if gap not in props:
            if method == "rk4":
                props[gap] = (np.linalg.matrix_power(step_W, gap),
                              _conj_symmetric(step_C ** gap))
            else:
                props[gap] = (scipy.linalg.expm(gen.W * (gap * dt)),
                              _conj_symmetric(np.exp(gen.C * (gap * dt))))
        P, F = props[gap]
        p = P @ p
        X = F * X
        if not (np.isfinite(p.sum()) and np.isfinite(X.sum())):
            raise PropagationError(f"NaN/Inf encountered before t={k * dt:.6g}")
        s = X.copy()
        s.flat[:: len(s) + 1] = p
        record(k, s)

    diag = np.array(diag_rows, dtype=float)
    traj = Trajectory(
        times=np.array(times),
        states=states,
        trace_dev=diag[:, 0],
        herm_dev=diag[:, 1],
        min_eig=diag[:, 2],
        top_pop=diag[:, 3],
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
