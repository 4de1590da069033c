"""Config-driven command-line front end.

Usage: ``ebloch <subcommand> --config PATH [--seed N] [--out DIR]``, each
option also as ``--opt=value`` (see README); ``-h``/``--help`` prints it.
Subcommands: simulate, fixed-point, verify-algebra, canonical, bench.
One sectioned key-value config file per run (UTF-8, in the INI dialect that
:func:`read_sections` reads, documented in the README), deterministic CSV
output (17 significant digits, atomic writes), seeded randomness recorded in
output headers.  Exit codes: 0 success, 1 validation or usage error,
2 numerical failure.
"""

from __future__ import annotations

import json
import os
import re
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import bench as bench_mod
from .canonical import canonical_experiment
from .dissipators import RhsSpec
from .linalg import as_matrix
from .propagate import PropagationError, propagate
from .stationary import fixed_point, gibbs_in_basis
from .systems import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BathModel,
    LadderSystem,
    TwoLevelSystem,
    build_oscillator,
    jump_operators,
    rates_from_bath,
    verify_jump_algebra,
)

SUBCOMMANDS = ("simulate", "fixed-point", "verify-algebra", "canonical", "bench")

_REQUIRED = object()
_INLINE_COMMENT = re.compile(r"\s#")
# an argv token that is a value, not an option: no leading '-', '-' alone or
# a negative number
_VALUE = re.compile(r"[^-].*|-?|-\d*\.?\d+", re.S)
_USAGE = ("usage: ebloch <subcommand> --config <path> [--seed N] [--out <dir>]\n"
          f"subcommands: {', '.join(SUBCOMMANDS)}")


class ConfigError(ValueError):
    """Carries every problem that one validation pass finds: all those of
    reading a config, or the one later check that failed (see README)."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class ScenarioConfig:
    """Validated run description assembled from one config file."""

    spec: RhsSpec
    bath_T: float | None
    initial: tuple | None  # (type, argument); None without an [initial] section
    t_final: float | None
    dt: float | None
    record_every: int
    out_path: str | None
    what: str
    verify_draws: int
    bench_applications: int
    bench_chunks: int
    canonical_T0: float | None


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _float_lines(table, labels=None) -> list[str]:
    """One CSV line per row of a 2-D float table, written with one
    ``%.17g`` format string per row: the text of :func:`_fmt` for every
    entry, nan, inf, -0 and subnormals included.  ``labels``, one string
    per row, are appended as a last column through the same template."""
    table = np.asarray(table, dtype=float)
    fmt = ",".join(["%.17g"] * table.shape[1])
    if labels is None:
        return [fmt % tuple(row) for row in table.tolist()]
    fmt += ",%s"
    return [fmt % (*row, label) for row, label in zip(table.tolist(), labels)]


def format_matrix_text(M) -> str:
    """State-matrix file format: one row per line, entries as re+imi pairs,
    each row written by one template of ``%.17g%+.17gi`` per entry."""
    M = np.ascontiguousarray(as_matrix(M))
    fmt = " ".join(["%.17g%+.17gi"] * len(M))
    return "\n".join([fmt % tuple(row) for row in M.view(float).tolist()]) + "\n"


def parse_matrix_text(text: str) -> np.ndarray:
    """Inverse of :func:`format_matrix_text`."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([complex(tok[:-1] + "j" if tok.endswith("i") else tok)
                         for tok in line.split()])
        except ValueError as exc:
            raise ValueError(f"state file line {lineno}: {exc}") from None
    if not rows:
        raise ValueError("state file contains no matrix rows")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("state file rows do not form a square matrix")
    M = np.array(rows, dtype=complex)
    if not np.all(np.isfinite(M.view(float))):
        raise ValueError("state file contains non-finite entries")
    return M


def read_sections(text: str) -> dict[str, dict[str, str]]:
    """``{section: {key: value}}`` of a config document, read in one pass in
    the dialect of README's config reference: ``[section]`` headers,
    ``key = value`` lines (keys lower-cased, values verbatim), full-line
    ``#`` or ``;`` comments and inline ``#`` comments after whitespace.  Any
    other line raises :class:`ConfigError`, one error per bad line."""
    sections: dict[str, dict[str, str]] = {}
    keys = None
    errors = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line[0] in "#;":
            continue
        if comment := _INLINE_COMMENT.search(line):
            line = line[:comment.start()].rstrip()
        if line[0] == "[":
            name = line[1:-1].strip()
            keys = {}  # a bad header's keys go nowhere: its own line is the error
            if line[-1] != "]":
                problem = "unclosed section header"
            elif not name:
                problem = "empty section name"
            elif name in sections:
                problem = f"duplicate section [{name}]"
            else:
                sections[name] = keys
                continue
        else:
            key, eq, value = line.partition("=")
            key = key.strip().lower()
            if not eq:
                problem = ("'key: value' is not read, write 'key = value'" if ":" in line
                           else "not a section header, 'key = value' or comment")
            elif not key:
                problem = "no key before '='"
            elif keys is None:
                problem = "key before the first [section] header"
            elif key in keys:
                problem = f"duplicate key '{key}'"
            else:
                keys[key] = value.strip()
                continue
        errors.append(f"syntax error: line {lineno}: {problem}: {line!r}")
    if errors:
        raise ConfigError(errors)
    return sections


class _Reader:
    """Key lookups in :func:`read_sections` output that accumulate errors
    and record each (section, key) read."""

    def __init__(self, sections: dict[str, dict[str, str]]):
        self.sections = sections
        self.errors: list[str] = []
        self.read: set[tuple[str, str]] = set()

    def has(self, section, key) -> bool:
        key = key.lower()
        self.read.add((section, key))
        return key in self.sections.get(section, ())

    def get(self, section, key, cast=str, default=_REQUIRED, choices=None):
        if not self.has(section, key):
            if default is _REQUIRED:
                self.errors.append(f"[{section}] missing required key '{key}'")
                return None
            return default
        raw = self.sections[section][key.lower()]
        try:
            value = cast(raw)
        except (TypeError, ValueError):
            expected = getattr(cast, "__name__", str(cast)).lstrip("_")
            self.errors.append(f"[{section}] {key} = {raw!r}: not a valid {expected}")
            return None
        if choices is not None and value not in choices:
            self.errors.append(
                f"[{section}] {key} = {raw!r}: must be one of {', '.join(map(str, choices))}"
            )
            return None
        return value


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _transitions(raw: str) -> tuple[tuple[int, int, float, float], ...]:
    out = []
    for item in raw.split(";"):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 4:
            raise ValueError(f"transition {item!r} is not i:j:gamma_p:gamma_m")
        out.append((int(parts[0]), int(parts[1]), float(parts[2]), float(parts[3])))
    if not out:
        raise ValueError("empty transition list")
    return tuple(out)


def _build_system(r: _Reader):
    """Returns (system, system_type, bath_T) or Nones on error."""
    stype = r.get("system", "type", choices=("two_level", "oscillator", "explicit"))
    if stype is None:
        return None, None, None
    bath_T = None
    system = None
    if stype == "two_level":
        E = r.get("system", "E", float)
        eps = r.get("system", "eps", _floats)
        has_rates = r.has("system", "gamma_p") or r.has("system", "gamma_m")
        if has_rates:
            gp = r.get("system", "gamma_p", float, default=0.0)
            gm = r.get("system", "gamma_m", float, default=0.0)
            for key in ("gamma", "bath_T"):
                if r.has("system", key):
                    r.errors.append(f"[system] {key} cannot be combined with gamma_p/gamma_m")
        else:
            gamma = r.get("system", "gamma", float)
            bath_T = r.get("system", "bath_T", float)
            gp = gm = None
        if None in (E, eps) or r.errors:
            return None, stype, bath_T
        try:
            if gp is None:
                gp, gm = rates_from_bath(BathModel(gamma=gamma, T=bath_T), E)
            system = TwoLevelSystem(E=E, eps=eps, gamma_p=gp, gamma_m=gm)
        except (TypeError, ValueError) as exc:
            r.errors.append(f"[system] {exc}")
    elif stype == "oscillator":
        N = r.get("system", "N", int)
        spacing = r.get("system", "spacing", float)
        rule = r.get("system", "coupling_rule", str, default="harmonic",
                     choices=("harmonic", "constant", "table"))
        gamma = r.get("system", "gamma", float, default=1.0)
        bath_T = r.get("system", "bath_T", float)
        table = r.get("system", "gamma_table", _floats, default=None)
        if rule == "table" and table is None:
            r.errors.append("[system] coupling_rule = table needs gamma_table")
        if rule in ("harmonic", "constant") and r.has("system", "gamma_table"):
            r.errors.append(f"[system] gamma_table is read only under coupling_rule = table, "
                            f"not {rule}")
        if r.errors or None in (N, spacing, bath_T):
            return None, stype, bath_T
        coupling = table if rule == "table" else rule
        try:
            system = build_oscillator(N, spacing, coupling, BathModel(gamma=gamma, T=bath_T))
        except (TypeError, ValueError) as exc:
            r.errors.append(f"[system] {exc}")
    else:
        energies = r.get("system", "energies", _floats)
        trans = r.get("system", "transitions", _transitions)
        if r.errors or None in (energies, trans):
            return None, stype, bath_T
        try:
            system = LadderSystem(energies, trans)
        except (TypeError, ValueError) as exc:
            r.errors.append(f"[system] {exc}")
    return system, stype, bath_T


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a config document.

    Raises :class:`ConfigError` carrying every problem found; syntax errors
    name their lines, and come alone.  The deprecated ``[integration]
    method`` and ``[dissipator] kind`` keys change nothing and each warns
    with a ``FutureWarning``; a ``kind`` must still name a route that the
    system has.
    """
    sections = read_sections(text)
    r = _Reader(sections)
    if "system" not in sections:
        raise ConfigError(["missing required section [system]"])

    system, system_type, bath_T = _build_system(r)

    kind = r.get("dissipator", "kind", default=None, choices=("gkls", "ebe2", "eben"))
    if kind is not None:
        warnings.warn("[dissipator] kind has no effect, as every route compiles to one "
                      "generator; a later release rejects the key", FutureWarning, stacklevel=2)
    include_unitary = r.get("dissipator", "include_unitary", _bool, default=True)
    gamma_pd = r.get("dissipator", "gamma_pd", float, default=0.0)
    spec = None
    needs = {"ebe2": TwoLevelSystem, "eben": LadderSystem}.get(kind, object)
    if None not in (system, include_unitary, gamma_pd):
        try:
            if not isinstance(system, needs):
                raise ValueError(f"kind {kind!r} needs a {needs.__name__}, "
                                 f"not {type(system).__name__}")
            spec = RhsSpec.for_system(system, include_unitary=include_unitary, gamma_pd=gamma_pd)
        except ValueError as exc:
            r.errors.append(f"[dissipator] {exc}")

    initial = None
    if "initial" in sections:
        itype = r.get("initial", "type", str, default="gibbs",
                      choices=("gibbs", "level", "file"))
        if itype == "gibbs":
            initial = ("gibbs", r.get("initial", "T", float, default=None))
        elif itype == "level":
            initial = ("level", r.get("initial", "index", int))
        elif itype == "file":
            path = r.get("initial", "path", str)
            if path is not None and not os.path.exists(path):
                r.errors.append(f"[initial] state file does not exist: {path}")
            initial = ("file", path)

    t_final = r.get("integration", "t_final", float, default=None)
    dt = r.get("integration", "dt", float, default=None)
    if r.get("integration", "method", default=None, choices=("expm", "rk4")) is not None:
        warnings.warn("[integration] method has no effect, as every run takes the exact flow; "
                      "a later release rejects the key", FutureWarning, stacklevel=2)
    record_every = r.get("integration", "record_every", int, default=1)

    out_path = r.get("output", "path", str, default=None)
    what = r.get("output", "what", str, default="all",
                 choices=("populations", "coherences", "diagnostics", "all"))

    verify_draws = r.get("verify", "num_draws", int, default=1000)
    bench_applications = r.get("bench", "applications", int, default=100000)
    bench_chunks = r.get("bench", "chunks", int, default=5)
    canonical_T0 = r.get("canonical", "T0", float, default=None)

    if record_every is not None and record_every < 1:
        r.errors.append("[integration] record_every must be >= 1")
    if verify_draws is not None and verify_draws < 1:
        r.errors.append("[verify] num_draws must be >= 1")
    for name, val in (("t_final", t_final), ("dt", dt)):
        if val is not None and not 0 < val < np.inf:
            r.errors.append(f"[integration] {name} must be positive and finite")
    # [system] only if its type, and so its branch, was read
    for section, keys in sections.items():
        if section != "system" or system_type is not None:
            r.errors += [f"[{section}] {key} is not a key this config reads"
                         for key in keys if (section, key) not in r.read]

    if r.errors:
        raise ConfigError(r.errors)
    return ScenarioConfig(
        spec=spec,
        bath_T=bath_T,
        initial=initial,
        t_final=t_final,
        dt=dt,
        record_every=record_every,
        out_path=out_path,
        what=what,
        verify_draws=verify_draws,
        bench_applications=bench_applications,
        bench_chunks=bench_chunks,
        canonical_T0=canonical_T0,
    )


def initial_state(cfg: ScenarioConfig) -> np.ndarray:
    """The configured start; a Gibbs start takes the spec's compiled eigenbasis."""
    itype, arg = cfg.initial or ("gibbs", None)
    dim = cfg.spec.dim
    if itype == "gibbs":
        T = arg if arg is not None else cfg.bath_T
        if T is None:
            raise ConfigError(["[initial] gibbs initial state needs T (or a system bath_T)"])
        return gibbs_in_basis(cfg.spec.compiled.E, cfg.spec.compiled.V, T)
    if itype == "level":
        if not (0 <= arg < dim):
            raise ConfigError([f"[initial] level index {arg} out of range for dim {dim}"])
        rho = np.zeros((dim, dim), dtype=complex)
        rho[arg, arg] = 1.0
        return rho
    with open(arg, "r", encoding="utf-8") as fh:
        rho = parse_matrix_text(fh.read())
    if rho.shape != (dim, dim):
        raise ConfigError([f"[initial] state file is {rho.shape}, system dim is {dim}"])
    return rho


def _write_atomic(path: str, text: str) -> None:
    data = memoryview(text.encode())
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
    # mode 0666, not mkstemp's 0600: the umask sets the output's mode
    try:
        fd = os.open(tmp, flags, 0o666)
    except OSError:  # made, then retried once; makedirs names a directory it cannot make
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        fd = os.open(tmp, flags, 0o666)
    try:
        try:
            while data:  # os.write may write only a part
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: list[str], lines: list[str], comments: list[str] = ()) -> str:
    return "\n".join([*(f"# {c}" for c in comments), ",".join(header), *lines]) + "\n"


def _out(out_dir: str, cfg_path: str | None, default: str) -> str:
    return os.path.join(out_dir, cfg_path if cfg_path else default)


def run_simulate(cfg: ScenarioConfig, seed: int, out_dir: str) -> list[str]:
    if cfg.t_final is None or cfg.dt is None:
        raise ConfigError(["[integration] simulate needs t_final and dt"])
    spec = cfg.spec
    rho0 = initial_state(cfg)
    traj = propagate(spec, rho0, cfg.t_final, cfg.dt, cfg.record_every)
    header, columns = ["t"], [traj.times]
    if cfg.what in ("populations", "all"):
        header += [f"p_{i}" for i in range(spec.dim)]
        columns.append(traj.populations())
    if cfg.what in ("coherences", "all"):
        rows_i, cols_j = np.triu_indices(spec.dim, 1)
        header += [f"abs_rho_{i}_{j}" for i, j in zip(rows_i.tolist(), cols_j.tolist())]
        z = traj.states[:, rows_i, cols_j]
        # hypot writes the bits of abs() of each complex entry; np.abs on a
        # complex array can round differently
        columns.append(np.hypot(z.real, z.imag))
    if cfg.what in ("diagnostics", "all"):
        header += ["trace_dev", "min_eig"]
        columns += [traj.trace_dev, traj.min_eig]
    if cfg.what == "diagnostics":
        header.append("top_pop")
        columns.append(traj.top_pop)
    rows = _float_lines(np.column_stack(columns))
    comments = [f"warning: {w}" for w in traj.warnings]
    path = _out(out_dir, cfg.out_path, "trajectory.csv")
    _write_atomic(path, _csv(header, rows, comments))
    return [path]


def run_fixed_point(cfg: ScenarioConfig, seed: int, out_dir: str) -> list[str]:
    """Write the fixed-point CSV and state file.  Under an exactly diagonal H
    the state is diag(p) bit for bit, so row i is written from ``report.p``
    as p[i] among ``0+0i`` entries, in the text of
    :func:`format_matrix_text`; no state matrix is built."""
    spec = cfg.spec
    report = fixed_point(spec, bath_T=cfg.bath_T)
    header = ["residual", "gibbs_distance", "spectral_gap", "multiplicity"]
    [row] = _float_lines([[report.residual, report.gibbs_distance, report.spectral_gap]])
    path = _out(out_dir, cfg.out_path, "fixed_point.csv")
    _write_atomic(path, _csv(header, [f"{row},{report.multiplicity}"]))
    state_path = os.path.splitext(path)[0] + ".state.txt"
    if spec.compiled.V is None:
        p = report.p.tolist()
        text = "".join(["0+0i " * i + "%.17g+0i" % x + " 0+0i" * (len(p) - 1 - i) + "\n"
                        for i, x in enumerate(p)])
    else:
        text = format_matrix_text(report.rho_stationary)
    _write_atomic(state_path, text)
    return [path, state_path]


def run_verify_algebra(cfg: ScenarioConfig, seed: int, out_dir: str) -> list[str]:
    """Check the jump algebra on random two-level Hamiltonians.

    Gaps and Bloch axes are drawn one draw at a time from the seeded
    generator, then all draws are checked as one (n, 2, 2) stack: one
    :func:`jump_operators` and one :func:`verify_jump_algebra` call.
    """
    rng = np.random.default_rng(seed)
    gaps, axes = np.empty(cfg.verify_draws), np.empty((cfg.verify_draws, 3))
    for k in range(cfg.verify_draws):
        gaps[k] = rng.uniform(0.2, 5.0)
        v = rng.standard_normal(3)
        axes[k] = v / np.linalg.norm(v)
    ex, ey, ez = axes.T[:, :, None, None]
    H = (0.5 * gaps)[:, None, None] * (ex * SIGMA_X + ey * SIGMA_Y + ez * SIGMA_Z)
    rep = verify_jump_algebra(jump_operators(H), H, gaps)
    res = rep.residuals()
    header = ["draw", "E", "eps_x", "eps_y", "eps_z", *res, "max_residual", "passed"]
    # %.17g writes the draw index k as the integer text str(k)
    table = np.column_stack([np.arange(cfg.verify_draws), gaps, axes, *res.values(),
                             rep.max_residual])
    rows = _float_lines(table, ["true" if passed else "false" for passed in rep.passed.tolist()])
    worst = np.max(rep.max_residual, initial=0.0)
    path = _out(out_dir, cfg.out_path, "verify_algebra.csv")
    _write_atomic(path, _csv(header, rows, [f"seed={seed}", f"max_residual={_fmt(worst)}"]))
    return [path]


def run_canonical(cfg: ScenarioConfig, seed: int, out_dir: str) -> list[str]:
    if not isinstance(cfg.spec.system, LadderSystem):
        raise ConfigError(["canonical needs an oscillator or explicit ladder system"])
    if cfg.canonical_T0 is None:
        raise ConfigError(["[canonical] missing required key 'T0'"])
    if cfg.t_final is None or cfg.dt is None:
        raise ConfigError(["[integration] canonical needs t_final and dt"])
    diag = canonical_experiment(cfg.spec.system, cfg.canonical_T0, cfg.t_final, cfg.dt,
                                record_every=cfg.record_every)
    header = ["t", "mean_ratio", "a", "delta", "max_nonuniformity", "lna_ode",
              "truncation_leak", "clean"]
    table = np.column_stack([diag.times, diag.mean_ratio, diag.a_series, diag.delta_series,
                             diag.max_nonuniformity, diag.lna_ode, diag.truncation_leak])
    rows = _float_lines(table, ["true" if clean else "false" for clean in diag.clean.tolist()])
    path = _out(out_dir, cfg.out_path, "canonical.csv")
    _write_atomic(path, _csv(header, rows, [f"ode_mismatch={_fmt(diag.ode_mismatch)}"]))
    return [path]


def run_bench(cfg: ScenarioConfig, seed: int, out_dir: str) -> list[str]:
    pair = bench_mod.kernel_pair(cfg.spec.system)
    if not 1 <= cfg.bench_chunks <= cfg.bench_applications:  # checked before the draw
        raise ValueError("need applications >= chunks >= 1")
    inputs = bench_mod.random_states(cfg.spec.dim, cfg.bench_applications,
                                     np.random.default_rng(seed))
    rows_data = bench_mod.run_bench(pair, inputs, cfg.bench_chunks)
    by_kernel = {row.kernel: row for row in rows_data}
    gkls_ns = by_kernel["gkls"].ns_per_apply
    checksums = {row.checksum for row in rows_data}
    n_dev = min(cfg.bench_applications, 20000)
    dev = bench_mod.max_deviation(pair, inputs[:n_dev])
    header = ["kernel", "dim", "transitions", "applications", "chunks",
              "ns_per_apply", "ratio_to_gkls", "checksum"]
    rows = [
        ",".join([row.kernel, str(row.dim), str(row.transitions), str(row.applications),
                  str(row.chunks), _fmt(row.ns_per_apply), _fmt(row.ns_per_apply / gkls_ns),
                  row.checksum])
        for row in rows_data
    ]
    path = _out(out_dir, cfg.out_path, "bench.csv")
    _write_atomic(path, _csv(header, rows, [
        f"seed={seed}",
        f"checksums_match={str(len(checksums) == 1).lower()}",
        f"max_deviation={_fmt(dev)} over {n_dev} inputs",
    ]))
    if len(checksums) != 1:
        raise RuntimeError(
            f"kernel checksums disagree: {sorted(checksums)}; "
            "timing table written but the equivalence gate failed"
        )
    return [path]


# why a subcommand that sets up no initial state rejects an [initial] section,
# which it would otherwise ignore; fixed-point still accepts one, as configs
# shared with simulate carry it
_NO_INITIAL = {
    "verify-algebra": "verify-algebra draws random two-level Hamiltonians",
    "canonical": "canonical always starts from Gibbs at [canonical] T0",
    "bench": "bench applies its kernels to random states",
}

_RUNNERS = {
    "simulate": run_simulate,
    "fixed-point": run_fixed_point,
    "verify-algebra": run_verify_algebra,
    "canonical": run_canonical,
    "bench": run_bench,
}


def _fail(error: str, messages, code: int) -> int:
    record = {"error": error, "messages": [str(m) for m in messages]}
    print(json.dumps(record), file=sys.stderr)
    return code


def _parse_argv(argv) -> tuple | None:
    """``(subcommand, config, seed, out)`` read from argv in one pass, or None
    for -h/--help; a usage error raises :class:`ConfigError`."""
    if argv and argv[0] in ("-h", "--help"):
        return None
    if not argv or not _VALUE.fullmatch(argv[0]):
        raise ConfigError(["ebloch: the following arguments are required: subcommand"])
    sub, *rest = argv
    if sub not in SUBCOMMANDS:
        raise ConfigError([f"ebloch: argument subcommand: invalid choice: {sub!r} "
                           f"(choose from {', '.join(map(repr, SUBCOMMANDS))})"])
    args, extra, tokens = {"--config": None, "--seed": 0, "--out": "."}, [], iter(rest)
    for tok in tokens:
        if tok in ("-h", "--help"):
            return None
        opt, eq, value = tok.partition("=")
        if opt not in args:
            extra.append(tok)
        # with no token left, "--" stands in: an option, so no value
        elif not eq and not _VALUE.fullmatch(value := next(tokens, "--")):
            raise ConfigError([f"ebloch {sub}: argument {opt}: expected one argument"])
        elif opt != "--seed":
            args[opt] = value
        else:
            try:
                args[opt] = int(value)
            except ValueError:
                raise ConfigError([f"ebloch {sub}: argument --seed: invalid int value: "
                                   f"{value!r}"]) from None
    if args["--config"] is None:
        raise ConfigError([f"ebloch {sub}: the following arguments are required: --config"])
    if extra:
        raise ConfigError([f"ebloch: unrecognized arguments: {' '.join(extra)}"])
    return sub, *args.values()


def main(argv=None) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        return _fail("validation", exc.errors, 1)
    if args is None:
        print(_USAGE)
        return 0
    subcommand, config, seed, out = args
    try:
        with open(config, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return _fail("validation", [f"cannot read config: {exc}"], 1)
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        return _fail("validation", exc.errors, 1)

    if cfg.initial is not None and subcommand in _NO_INITIAL:
        return _fail("validation", [f"[initial] is not read: {_NO_INITIAL[subcommand]}"], 1)
    try:
        paths = _RUNNERS[subcommand](cfg, seed, out)
    except ConfigError as exc:
        return _fail("validation", exc.errors, 1)
    # LinAlgError subclasses ValueError, so the numerical family goes first
    except (PropagationError, RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        return _fail("numerical", [exc], 2)
    # OSError: an output that cannot be created or written
    except (ValueError, TypeError, OSError) as exc:
        return _fail("validation", [exc], 1)
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
