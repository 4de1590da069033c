"""The benchmark's workloads: seeded CLI configs and the checks on their outputs.

Each workload is a fixed job set.  The seed draws physical parameters
(temperatures, rates, Bloch axes, call order) and never a problem size, so
every seed does the same amount of work and the traced counts do not depend
on it.  Every check parses what the CLI wrote and compares it against the
acceptance-suite tolerances, never against a byte hash, so a faster
algorithm with different round-off still passes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

class CheckFailed(Exception):
    """An output the CLI wrote is missing, malformed or out of tolerance."""


@dataclass(frozen=True)
class Job:
    """One ``ebloch <subcommand>`` call and the check on what it wrote.

    ``check`` receives the path of the CSV named in the config's
    ``[output] path`` and raises :class:`CheckFailed` on a bad output.
    """

    name: str
    subcommand: str
    config: dict
    check: Callable[[Path], None]
    cli_seed: int = 0

    @property
    def csv_name(self) -> str:
        return f"{self.name}.csv"

    def config_text(self) -> str:
        sections = dict(self.config)
        sections["output"] = {"path": self.csv_name}
        lines = []
        for section, keys in sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {_ini_value(val)}" for key, val in keys.items())
            lines.append("")
        return "\n".join(lines)


@dataclass
class Workload:
    """A workload's warm-up calls and its fixed job set.

    ``set_seconds`` is the job set's time on the baseline machine.  A run of
    ``--seconds`` makes ``repeats(seconds)`` job sets, a number that depends
    on the budget but never on how fast the code under test is, so a faster
    build gets no more repetitions to take its fastest from.
    """

    name: str
    warmup: list[Job]
    jobs: list[Job]
    set_seconds: float
    params: dict = field(default_factory=dict)

    def repeats(self, seconds: float) -> int:
        return max(1, round(seconds / self.set_seconds))


def _ini_value(val) -> str:
    if isinstance(val, float):
        return repr(val)
    if isinstance(val, (tuple, list)):
        return ", ".join(_ini_value(v) for v in val)
    return str(val)


# ------------------------------------------------------------------ parsing


def read_csv(path: Path) -> tuple[dict[str, str], dict[str, list[str]]]:
    """(``key=value`` comments, columns by header name) of a CLI CSV."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CheckFailed(f"{path.name}: cannot read output: {exc}") from None
    comments = {}
    for line in lines:
        if line.startswith("#") and "=" in line:
            key, _, val = line[1:].strip().partition("=")
            comments[key.strip()] = val.strip()
    body = [line.split(",") for line in lines if line and not line.startswith("#")]
    if len(body) < 2:
        raise CheckFailed(f"{path.name}: no data rows")
    header, rows = body[0], body[1:]
    if any(len(r) != len(header) for r in rows):
        raise CheckFailed(f"{path.name}: ragged rows")
    return comments, {name: [r[i] for r in rows] for i, name in enumerate(header)}


def _floats(values: list[str]) -> np.ndarray:
    return np.array([float(v) for v in values])


def _column(cols: dict, name: str, path: Path) -> list[str]:
    if name not in cols:
        raise CheckFailed(f"{path.name}: missing column {name!r}")
    return cols[name]


def _require(ok: bool, path: Path, message: str) -> None:
    if not ok:
        raise CheckFailed(f"{path.name}: {message}")


def read_state(path: Path) -> np.ndarray:
    """Density matrix from the CLI's ``re+imi`` state-file format."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            rows.append([complex(tok.replace("i", "j")) for tok in line.split()])
    return np.array(rows, dtype=complex)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return float(0.5 * np.abs(np.linalg.eigvalsh(0.5 * (d + d.conj().T))).sum())


# ------------------------------------------------------------------- checks


def check_trajectory(path: Path, records: int) -> None:
    """Trace within 1e-10 and positivity to -1e-8 on every recorded row."""
    _, cols = read_csv(path)
    trace_dev = _floats(_column(cols, "trace_dev", path))
    min_eig = _floats(_column(cols, "min_eig", path))
    _require(len(trace_dev) == records, path,
             f"{len(trace_dev)} records, expected {records}")
    _require(bool(np.all(trace_dev <= 1e-10)), path,
             f"trace_dev {trace_dev.max():.3e} > 1e-10")
    _require(bool(np.all(min_eig >= -1e-8)), path, f"min_eig {min_eig.min():.3e} < -1e-8")


def check_fixed_point(path: Path, gibbs_tol: float | None = 1e-8,
                      analytic: np.ndarray | None = None) -> None:
    """A single zero mode, Gibbs within ``gibbs_tol`` and, for two-level
    systems, the closed-form stationary state within 1e-10."""
    _, cols = read_csv(path)
    mult = _column(cols, "multiplicity", path)
    _require(mult == ["1"], path, f"multiplicity {mult}, expected ['1']")
    if gibbs_tol is not None:
        gd = float(_column(cols, "gibbs_distance", path)[0])
        _require(gd <= gibbs_tol, path, f"gibbs_distance {gd:.3e} > {gibbs_tol:.0e}")
    if analytic is not None:
        state_path = path.with_suffix(".state.txt")
        try:
            rho = read_state(state_path)
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"{state_path.name}: {exc}") from None
        _require(rho.shape == analytic.shape, path, f"state shape {rho.shape}")
        dist = trace_distance(rho, analytic)
        _require(dist <= 1e-10, path, f"distance to closed form {dist:.3e} > 1e-10")


def check_canonical(path: Path, records: int, target: float | None) -> None:
    """Criteria 6/7: ODE mismatch, harmonic non-uniformity and, when
    ``target`` is given, the final mean ratio."""
    comments, cols = read_csv(path)
    mism = float(comments.get("ode_mismatch", "nan"))
    _require(mism <= 1e-4, path, f"ode_mismatch {mism:.3e} > 1e-4")
    clean = np.array([v == "true" for v in _column(cols, "clean", path)])
    nonunif = _floats(_column(cols, "max_nonuniformity", path))
    mean_ratio = _floats(_column(cols, "mean_ratio", path))
    _require(len(clean) == records, path, f"{len(clean)} records, expected {records}")
    _require(bool(clean.any()), path, "no clean rows")
    worst = float(nonunif[clean].max())
    _require(worst <= 1e-6, path, f"max_nonuniformity {worst:.3e} > 1e-6")
    if target is not None:
        err = abs(mean_ratio[-1] - target)
        _require(err <= 1e-8, path, f"final mean_ratio off {target:.6g} by {err:.3e}")


def check_verify_algebra(path: Path, draws: int) -> None:
    comments, cols = read_csv(path)
    worst = float(comments.get("max_residual", "nan"))
    _require(worst <= 1e-12, path, f"max_residual {worst:.3e} > 1e-12")
    passed = _column(cols, "passed", path)
    _require(len(passed) == draws, path, f"{len(passed)} draws, expected {draws}")
    _require(all(v == "true" for v in passed), path, "a draw failed its identities")


def check_bench(path: Path) -> None:
    comments, cols = read_csv(path)
    _require(comments.get("checksums_match") == "true", path, "kernel checksums differ")
    sums = _column(cols, "checksum", path)
    _require(len(sums) == 2 and len(set(sums)) == 1, path, f"checksums {sums}")


# --------------------------------------------------------------- workloads


def n_steps(integration: dict) -> int:
    return round(integration["t_final"] / integration["dt"])


def n_records(integration: dict) -> int:
    """Recorded rows: every ``record_every``-th step, plus t=0 and t_final."""
    steps, every = n_steps(integration), integration["record_every"]
    return len(range(0, steps + 1, every)) + (steps % every != 0)


def _ladder(N: int, spacing: float, rule: str, gamma: float, bath_T: float) -> dict:
    return {"type": "oscillator", "N": N, "spacing": spacing, "coupling_rule": rule,
            "gamma": gamma, "bath_T": bath_T}


QUENCH = {"N": 14, "t_final": 30.0, "dt": 1e-3, "record_every": 25}


def quench(seed: int) -> Workload:
    """Criterion 6/7 fixture: one long RK4 run of a harmonic ladder quench."""
    rng = random.Random(seed)
    spacing = rng.uniform(9.5, 10.5)
    bath_T = 1.0
    T0 = rng.uniform(1.8, 2.2)

    def job(name, t_final, target):
        integration = {"t_final": t_final, "dt": QUENCH["dt"],
                       "record_every": QUENCH["record_every"]}
        config = {"system": _ladder(QUENCH["N"], spacing, "harmonic", 1.0, bath_T),
                  "integration": integration, "canonical": {"T0": T0}}
        return Job(name, "canonical", config,
                   partial(check_canonical, records=n_records(integration), target=target))

    # the warm-up quench is too short to relax, so its final ratio is not checked
    warmup = job("warmup", 0.2, target=None)
    main = job("quench", QUENCH["t_final"], target=-spacing / bath_T)
    return Workload("quench", warmup=[warmup], jobs=[main], set_seconds=6.0,
                    params={"spacing": spacing, "bath_T": bath_T, "T0": T0, **QUENCH})


# dt and record_every give record gaps 5, 5, 2: two distinct propagators for
# three intervals, so the propagator cache serves one interval in three.
EXACT_ROUTES = (("eben", 32), ("gkls", 24))
EXACT_INTEGRATION = {"t_final": 0.12, "dt": 0.01, "method": "expm", "record_every": 5}


def exact(seed: int) -> Workload:
    """Fixed point and exact propagation of ladders through both routes.

    Spacing and coupling stay fixed so the superoperator's 1-norm, and with
    it the squaring count that ``expm`` picks, is the same for every seed;
    the seed draws the temperatures.  The Pade order can still change with
    them (9 or 13 for the ``gkls`` five-step interval).
    """
    rng = random.Random(seed)

    def jobs_for(kind, N, tag):
        bath_T = rng.uniform(0.7, 1.5)
        T0 = rng.uniform(1.5, 3.0)
        config = {
            "system": _ladder(N, 1.0, "harmonic", 1.0, bath_T),
            "dissipator": {"kind": kind},
            "initial": {"type": "gibbs", "T": T0},
            "integration": EXACT_INTEGRATION,
        }
        return [
            Job(f"{tag}{kind}{N}_fp", "fixed-point", config, check_fixed_point),
            Job(f"{tag}{kind}{N}_sim", "simulate", config,
                partial(check_trajectory, records=n_records(EXACT_INTEGRATION))),
        ]

    jobs = [j for kind, N in EXACT_ROUTES for j in jobs_for(kind, N, "")]
    warmup = [j for kind, _ in EXACT_ROUTES for j in jobs_for(kind, 6, "warmup_")]
    return Workload("exact", warmup=warmup, jobs=jobs, set_seconds=4.5,
                    params={"routes": [list(r) for r in EXACT_ROUTES], **EXACT_INTEGRATION})


# Fixed composition of one ``small`` job set.  Sizes and counts are constants;
# the seed draws parameters and the call order.  No traffic log exists to
# copy a mix from, so the counts are set to give each of the four
# subcommands a fifth to a third of the job set's call time (README.md has
# the measured shares), and ``bench`` runs 100 applications rather than the
# CLI default of 100,000, so no call is dominated by a kernel loop.
SMALL_MIX = {
    "verify-algebra": 10,
    "fixed-point-2": 80,
    "fixed-point-ladder": 30,
    "simulate-expm": 24,
    "simulate-rk4": 24,
    "bench-2": 30,
    "bench-ladder": 1,
}
SMALL_SIZES = {"verify_draws": 200, "ladder_N": (3, 4, 5, 6, 7, 8),
               "bench_applications": 100, "bench_chunks": 4, "bench_ladder_N": 10}
SMALL_SIM = {"expm": {"t_final": 5.0, "dt": 0.01, "record_every": 10},
             "rk4": {"t_final": 1.0, "dt": 0.01, "record_every": 5}}


def _unit_vector(rng: random.Random) -> tuple[float, float, float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-3:
            return tuple(x / n for x in v)


PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))


def two_level_analytic(E: float, eps, gamma_p: float, gamma_m: float) -> np.ndarray:
    """1/2 + ((gp - gm)/(gp + gm)) H/E with H = (E/2) eps . sigma."""
    H = 0.5 * E * sum(e * s for e, s in zip(eps, PAULI))
    return 0.5 * np.eye(2, dtype=complex) + ((gamma_p - gamma_m) / (gamma_p + gamma_m)) * H / E


def small(seed: int) -> Workload:
    """A few hundred short calls where per-call overhead dominates."""
    rng = random.Random(seed)
    jobs: list[Job] = []

    def two_level(kind: str, thermal: bool):
        E = rng.uniform(0.3, 3.0)
        eps = _unit_vector(rng)
        if thermal:
            gamma, T = rng.uniform(0.3, 2.0), rng.uniform(0.3, 4.0)
            gp = gamma / (math.exp(E / T) + 1.0)
            system = {"type": "two_level", "E": E, "eps": eps, "gamma": gamma, "bath_T": T}
            gm = gamma - gp
        else:
            gm = rng.uniform(0.2, 2.0)
            gp = gm * rng.uniform(0.05, 0.95)
            system = {"type": "two_level", "E": E, "eps": eps, "gamma_p": gp, "gamma_m": gm}
        return {"system": system, "dissipator": {"kind": kind}}, (E, eps, gp, gm)

    for k in range(SMALL_MIX["verify-algebra"]):
        config, _ = two_level("ebe2", True)
        config["verify"] = {"num_draws": SMALL_SIZES["verify_draws"]}
        jobs.append(Job(f"va{k}", "verify-algebra", config,
                        partial(check_verify_algebra, draws=SMALL_SIZES["verify_draws"]),
                        cli_seed=rng.randrange(2**31)))
    for k in range(SMALL_MIX["fixed-point-2"]):
        kind = ("ebe2", "gkls")[k % 2]
        config, (E, eps, gp, gm) = two_level(kind, thermal=k % 4 < 2)
        jobs.append(Job(f"fp2_{k}", "fixed-point", config,
                        partial(check_fixed_point, gibbs_tol=1e-10 if k % 4 < 2 else None,
                              analytic=two_level_analytic(E, eps, gp, gm))))
    sizes = SMALL_SIZES["ladder_N"]
    for k in range(SMALL_MIX["fixed-point-ladder"]):
        N = sizes[k % len(sizes)]
        config = {
            "system": _ladder(N, rng.uniform(0.5, 2.0), ("harmonic", "constant")[k % 2],
                              rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0)),
            "dissipator": {"kind": ("eben", "gkls")[(k // 2) % 2]},
        }
        jobs.append(Job(f"fpL{N}_{k}", "fixed-point", config, check_fixed_point))
    for method in ("expm", "rk4"):
        sim = SMALL_SIM[method]
        for k in range(SMALL_MIX[f"simulate-{method}"]):
            config, _ = two_level(("ebe2", "gkls")[k % 2], thermal=True)
            config["initial"] = ({"type": "gibbs", "T": rng.uniform(0.5, 5.0)} if k % 3
                                 else {"type": "level", "index": rng.randrange(2)})
            config["integration"] = {**sim, "method": method}
            jobs.append(Job(f"sim_{method}{k}", "simulate", config,
                            partial(check_trajectory, records=n_records(sim))))
    bench_keys = {"applications": SMALL_SIZES["bench_applications"],
                  "chunks": SMALL_SIZES["bench_chunks"]}
    for k in range(SMALL_MIX["bench-2"]):
        config, _ = two_level("ebe2", True)
        config["bench"] = bench_keys
        jobs.append(Job(f"bench2_{k}", "bench", config, check_bench,
                        cli_seed=rng.randrange(2**31)))
    for k in range(SMALL_MIX["bench-ladder"]):
        config = {"system": _ladder(SMALL_SIZES["bench_ladder_N"], rng.uniform(0.5, 2.0),
                                    "harmonic", 1.0, rng.uniform(0.5, 2.0)),
                  "bench": bench_keys}
        jobs.append(Job(f"benchL_{k}", "bench", config, check_bench,
                        cli_seed=rng.randrange(2**31)))
    rng.shuffle(jobs)

    warm_config, _ = two_level("ebe2", True)
    warm_config["initial"] = {"type": "gibbs", "T": 1.0}
    warm_config["integration"] = {**SMALL_SIM["expm"], "method": "expm"}
    warmup = [Job("warmup", "simulate", warm_config,
                  partial(check_trajectory, records=n_records(SMALL_SIM["expm"])))]
    return Workload("small", warmup=warmup, jobs=jobs, set_seconds=1.8,
                    params={"mix": SMALL_MIX, **SMALL_SIZES})


WORKLOADS = {"quench": quench, "exact": exact, "small": small}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
