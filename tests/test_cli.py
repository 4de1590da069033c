"""End-to-end tests of the command-line front end and config parsing."""

import ast
import dataclasses
import importlib.util
import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ebloch
from ebloch import bench
from ebloch.cli import (
    ConfigError,
    format_matrix_text,
    main,
    parse_config,
    parse_matrix_text,
    read_sections,
)
from ebloch.csvtext import _float_lines
from ebloch.csvtext import fmt as _fmt
from ebloch.dissipators import RhsSpec
from ebloch.stationary import FixedPointReport, fixed_point, gibbs_state
from ebloch.systems import SIGMA_X, SIGMA_Z, TwoLevelSystem
from test_systems import INVALID_LADDERS

TWO_LEVEL_CFG = """\
[system]
type = two_level
E = 1.0
eps = 0, 0, 1
gamma_p = {gp}
gamma_m = {gm}

[initial]
type = gibbs
T = 1.0

[integration]
t_final = 5.0
dt = 0.01
record_every = 10

[output]
path = traj.csv
what = all
"""
GIBBS_START = "[initial]\ntype = gibbs\nT = 1.0\n\n"
# bench sets up no start, so its configs carry no [initial] section
TWO_LEVEL_BENCH_CFG = TWO_LEVEL_CFG.replace(GIBBS_START, "")


def thermal_rates(E=1.0, T=1.0, gamma=1.0):
    from ebloch.systems import BathModel, rates_from_bath

    return rates_from_bath(BathModel(gamma, T), E)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    lines = [l for l in open(path).read().splitlines()]
    comments = [l for l in lines if l.startswith("#")]
    rows = [l.split(",") for l in lines if not l.startswith("#")]
    return comments, rows[0], rows[1:]


# -------------------------------------------------------------- config parsing


def test_parse_minimal_two_level_defaults():
    gp, gm = thermal_rates()
    cfg = parse_config(TWO_LEVEL_CFG.format(gp=gp, gm=gm))
    assert cfg.record_every == 10
    assert isinstance(cfg.spec.system, TwoLevelSystem)
    assert cfg.spec.include_unitary is True
    assert cfg.what == "all"


def test_parse_only_system_section_defaults():
    cfg = parse_config("""\
[system]
type = two_level
E = 1.0
eps = 0, 0, 1
gamma = 1.0
bath_T = 2.0
""")
    spec = cfg.spec
    assert isinstance(spec.system, TwoLevelSystem)
    assert (spec.jumps, spec.include_unitary, spec.gamma_pd) == ((), True, 0.0)
    defaults = {name: getattr(cfg, name) for name in vars(cfg) if name != "spec"}
    assert defaults == {
        "bath_T": 2.0,
        "initial": None,
        "t_final": None,
        "dt": None,
        "record_every": 1,
        "out_path": None,
        "what": "all",
        "verify_draws": 1000,
        "bench_applications": 100000,
        "bench_chunks": 5,
        "canonical_T0": None,
    }


def test_parse_rejects_unnormalized_eps_with_named_constraint():
    gp, gm = thermal_rates()
    bad = TWO_LEVEL_CFG.format(gp=gp, gm=gm).replace("eps = 0, 0, 1", "eps = 0, 0, 1.01")
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert any("unit length" in e for e in exc.value.errors)


def test_parse_collects_all_errors():
    text = """\
[system]
type = two_level
E = -1.0
eps = 0, 0, 0
gamma_p = nope

[integration]
t_final = -3
dt = 0.1
"""
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    msgs = "\n".join(exc.value.errors)
    assert "gamma_p" in msgs
    assert "t_final" in msgs
    assert len(exc.value.errors) >= 2


def test_parse_syntax_error_reports_line():
    for text, line, problem in [
        ("[system\ntype = two_level\n", 1, "unclosed section header"),
        ("# a comment\n\n[system]\ntype: two_level\n", 4, "'key: value' is not read"),
        ("; a comment\ntype = two_level\n[system]\n", 2, "key before the first [section]"),
        ("[system]\ntype = two_level\n  E 1.0\n", 3, "not a section header"),
        ("[system]\ntype = two_level\n[output]\n[system]\n", 4, "duplicate section [system]"),
        ("[system]\ntype = two_level\nE = 1\n\nTYPE = oscillator\n", 5, "duplicate key 'type'"),
        ("[system]\n= two_level\n", 2, "no key before '='"),
        ("[]\n", 1, "empty section name"),
    ]:
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        [error] = exc.value.errors
        assert error.startswith(f"syntax error: line {line}: {problem}"), error


def test_every_bad_line_is_reported():
    with pytest.raises(ConfigError) as exc:
        read_sections("E = 1\n[system]\ntype two_level\n[bad\n")
    assert [e.split(":")[1] for e in exc.value.errors] == [" line 1", " line 3", " line 4"]


def test_config_dialect_comments_case_and_indentation():
    sections = read_sections("""\
; full-line comments start with ; or #
[system]   # a header may carry an inline comment
  Type = explicit
\tenergies = 0, 1.0, 2.7   # an inline comment follows whitespace
    # an indented comment line
transitions = 0:1:0.2:0.8 ; 1:2:0.1:0.9
[output]
path = out#1.csv
what = 100%  ;  kept
""")
    assert sections == {
        "system": {"type": "explicit", "energies": "0, 1.0, 2.7",
                   "transitions": "0:1:0.2:0.8 ; 1:2:0.1:0.9"},
        "output": {"path": "out#1.csv", "what": "100%  ;  kept"},
    }


def test_a_spaced_semicolon_keeps_every_transition(tmp_path):
    # a ; is never an inline comment: both transitions are read, and the
    # ladder 0-1-2 is connected, with one stationary state
    text = ("[system]\ntype = explicit\nenergies = 0, 1.0, 2.7\n"
            "transitions = 0:1:0.2:0.8 ; 1:2:0.1:0.9\n[output]\npath = fp.csv\n")
    ii, jj, _, _ = parse_config(text).spec.system.transitions
    assert (ii.tolist(), jj.tolist()) == ([0, 1], [1, 2])
    cfg = write(tmp_path, "x.cfg", text)
    assert main(["fixed-point", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "fp.csv")
    assert dict(zip(header, rows[0]))["multiplicity"] == "1"


def test_a_spaced_semicolon_note_is_part_of_the_value(tmp_path, capsys):
    gp, gm = thermal_rates()
    text = TWO_LEVEL_CFG.format(gp=gp, gm=gm) + "[dissipator]\nkind = gkls ; note\n"
    cfg = write(tmp_path, "x.cfg", text)
    assert main(["fixed-point", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "validation", "messages": [
        "[dissipator] kind = 'gkls ; note': must be one of gkls, ebe2, eben"]}


def test_parse_oscillator_materializes_harmonic_table():
    text = """\
[system]
type = oscillator
N = 12
spacing = 1.0
coupling_rule = harmonic
gamma = 0.5
bath_T = 1.0
"""
    cfg = parse_config(text)
    _, _, gp, gm = cfg.spec.system.transitions
    np.testing.assert_allclose(gp + gm, [0.5 * (i + 1) for i in range(11)], rtol=1e-13)


def test_parse_explicit_system():
    text = """\
[system]
type = explicit
energies = 0, 1.0, 2.7
transitions = 0:1:0.2:0.8; 1:2:0.1:0.9
"""
    cfg = parse_config(text)
    assert cfg.spec.system.N == 3
    ii, jj, _, _ = cfg.spec.system.transitions
    assert (ii.tolist(), jj.tolist()) == ([0, 1], [1, 2])


def test_parse_two_level_thermal_shortcut():
    text = """\
[system]
type = two_level
E = 2.0
eps = 1, 0, 0
gamma = 1.0
bath_T = 0.5
"""
    cfg = parse_config(text)
    sys2 = cfg.spec.system
    assert sys2.gamma_p / sys2.gamma_m == pytest.approx(math.exp(-4.0), rel=1e-12)
    assert cfg.bath_T == 0.5


def test_parse_kind_system_mismatch():
    text = """\
[system]
type = oscillator
N = 4
spacing = 1.0
bath_T = 1.0

[dissipator]
kind = ebe2
"""
    with (pytest.raises(ConfigError, match="kind 'ebe2' needs a TwoLevelSystem, not LadderSystem"),
          pytest.warns(FutureWarning)):
        parse_config(text)


@pytest.mark.parametrize("system, kind", [("oscillator", "ebe2"), ("two_level", "eben")])
def test_kind_system_mismatch_is_collected_with_the_other_errors(system, kind):
    text = (CONFIG_SYSTEMS[system][0] + f"[dissipator]\nkind = {kind}\n"
            "[integration]\nt_final = -3\n")
    with pytest.raises(ConfigError) as exc, pytest.warns(FutureWarning):
        parse_config(text)
    assert len(exc.value.errors) == 2
    assert exc.value.errors[0].startswith(f"[dissipator] kind {kind!r} needs a ")
    assert exc.value.errors[1] == "[integration] t_final must be positive and finite"


def test_gibbs_start_without_t_takes_the_system_bath_temperature(tmp_path):
    text = (CONFIG_SYSTEMS["oscillator"][0].replace("N = 5", "N = 4")
            + "[integration]\nt_final = 0.5\ndt = 0.05\n")
    outputs = []
    for name, initial in (("default", ""), ("gibbs", "[initial]\ntype = gibbs\n")):
        out = tmp_path / name
        assert main(["simulate", "--config", write(tmp_path, f"{name}.cfg", text + initial),
                     "--out", str(out)]) == 0
        outputs.append((out / "trajectory.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("rule", ["harmonic", "constant"])
def test_gamma_table_outside_the_table_rule_exits_as_validation(tmp_path, capsys, rule):
    text = ("[system]\ntype = oscillator\nN = 4\nspacing = nope\nbath_T = 1.0\n"
            f"coupling_rule = {rule}\ngamma_table = 5, 0, 7\n")
    cfg = write(tmp_path, "t.cfg", text)
    assert main(["fixed-point", "--config", cfg, "--out", str(tmp_path)]) == 1
    messages = json.loads(capsys.readouterr().err)["messages"]
    assert len(messages) == 2  # collected with the spacing error
    assert any("gamma_table" in m and rule in m for m in messages)
    assert not (tmp_path / "fixed_point.csv").exists()


@pytest.mark.parametrize("keys", [("gamma",), ("bath_T",), ("gamma", "bath_T")])
def test_thermal_keys_beside_explicit_two_level_rates_exit_as_validation(tmp_path, capsys,
                                                                         keys):
    text = TWO_LEVEL_CFG.format(gp=0.3, gm=0.7).replace("E = 1.0", "E = nope")
    text = text.replace("gamma_m = 0.7\n", "gamma_m = 0.7\n" + "".join(
        f"{key} = 1.0\n" for key in keys))
    cfg = write(tmp_path, "t.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    messages = json.loads(capsys.readouterr().err)["messages"]
    assert len(messages) == len(keys) + 1  # collected with the E error
    for key in keys:
        assert any(m.startswith(f"[system] {key} ") for m in messages), key
    assert not (tmp_path / "traj.csv").exists()


def cli_config_keys() -> set:
    """(section, key) of every ``get``/``has`` call in ``cli.py`` whose
    first two arguments are string literals."""
    tree = ast.parse(Path(ebloch.__file__).with_name("cli.py").read_text())
    keys = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "has") and len(node.args) >= 2
                and all(isinstance(a, ast.Constant) and isinstance(a.value, str)
                        for a in node.args[:2])):
            keys.add((node.args[0].value, node.args[1].value))
    return keys


def readme_config_keys() -> set:
    """(section, key) of every line of README's config-reference ini block,
    commented keys included."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("### Config reference", 1)[1].split("```ini\n", 1)[1]
    keys, section = set(), None
    for line in block.split("\n```", 1)[0].splitlines():
        if m := re.match(r"\[(\w+)\]", line):
            section = m.group(1)
        elif m := re.match(r"#?\s*(\w+)\s*=", line):
            keys.add((section, m.group(1)))
    return keys


def test_readme_config_reference_names_every_key_the_parser_reads():
    read = cli_config_keys()
    assert ("system", "gamma_table") in read and ("dissipator", "gamma_pd") in read
    assert readme_config_keys() == read


def test_readme_config_reference_is_valid_syntax():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("### Config reference", 1)[1].split("```ini\n", 1)[1]
    sections = read_sections(block.split("\n```", 1)[0])
    assert list(sections) == ["system", "dissipator", "initial", "integration", "output",
                              "verify", "bench", "canonical"]
    # every uncommented key, with its inline note cut off
    assert sections["system"]["transitions"] == "0:1:0.2:0.8; 1:2:0.1:0.9"
    assert sections["dissipator"]["kind"] == "ebe2"
    assert sections["initial"] == {"type": "gibbs | level | file", "t": "1.0", "index": "0",
                                   "path": "state.txt"}


CONFIG_SYSTEMS = {
    "two_level": ("[system]\ntype = two_level\nE = 1.3\neps = 0.6, 0, 0.8\n"
                  "gamma = 1.0\nbath_T = 0.7\n", ("ebe2", "gkls")),
    "oscillator": ("[system]\ntype = oscillator\nN = 5\nspacing = 1.0\nbath_T = 1.0\n",
                   ("eben", "gkls")),
    "explicit": ("[system]\ntype = explicit\nenergies = 0, 1.0, 2.7\n"
                 "transitions = 0:1:0.2:0.8; 1:2:0.1:0.9; 0:2:0.05:0.6\n", ("eben", "gkls")),
}


@pytest.mark.parametrize("text, message", [
    (CONFIG_SYSTEMS["oscillator"][0] + "gamma_pd = 0.4\n",
     "[system] gamma_pd is not a key this config reads"),
    (CONFIG_SYSTEMS["two_level"][0] + "gamma_pd = -0.1\n",
     "[system] gamma_pd is not a key this config reads"),
    (CONFIG_SYSTEMS["explicit"][0] + "bath_T = 1.0\n",
     "[system] bath_t is not a key this config reads"),
    (CONFIG_SYSTEMS["oscillator"][0] + "[integraton]\ndt = 0.01\n",
     "[integraton] dt is not a key this config reads"),
], ids=["oscillator-system-gamma_pd", "two_level-system-gamma_pd", "explicit-system-bath_T",
        "misspelt-section"])
def test_keys_the_config_does_not_read_exit_as_validation(tmp_path, capsys, text, message):
    cfg = write(tmp_path, "k.cfg", text + "[output]\npath = fp.csv\n")
    assert main(["fixed-point", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "validation", "messages": [message]}
    assert not (tmp_path / "fp.csv").exists()


def test_unread_keys_are_collected_with_the_other_errors():
    text = CONFIG_SYSTEMS["oscillator"][0].replace("N = 5", "N = five") + "[output]\npth = x\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == ["[system] N = 'five': not a valid int",
                                "[output] pth is not a key this config reads"]


def test_a_failed_system_type_leaves_its_keys_unscanned():
    text = CONFIG_SYSTEMS["oscillator"][0].replace("oscillator", "ladder")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == [
        "[system] type = 'ladder': must be one of two_level, oscillator, explicit"]


def test_every_benchmark_job_config_parses(monkeypatch):
    # a read-only import of the benchmark's job builder: no bytecode is
    # written next to it; compiling each spec catches a system the
    # benchmark builds that the package no longer represents
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(workloads)
    for seed in (1, 3, 7):
        with pytest.warns(FutureWarning) as record:
            for name in workloads.WORKLOADS:
                workload = workloads.build(name, seed)
                for job in workload.warmup + workload.jobs:
                    parse_config(job.config_text()).spec.compiled
        assert all(w.category is FutureWarning for w in record)
        messages = [str(w.message) for w in record]
        # the jobs that set the deprecated [integration] method: small's 48
        # simulate jobs (24 of them rk4) and its warm-up, exact's 4 jobs and
        # 4 warm-ups: 49 + 8 = 57
        assert sum(m.startswith("[integration] method") for m in messages) == 57
        # the jobs that set the deprecated [dissipator] kind: exact's 4 jobs
        # and 4 warm-ups; small's 10 verify-algebra, 80 two-level and 30
        # ladder fixed points, 48 simulate and 30 two-level bench jobs and its
        # warm-up (its one ladder bench sets none): 8 + 199 = 207
        assert sum(m.startswith("[dissipator] kind") for m in messages) == 207
        assert len(messages) == 57 + 207


@pytest.mark.parametrize("system", sorted(CONFIG_SYSTEMS))
@pytest.mark.parametrize("include_unitary", ["true", "false"])
@pytest.mark.parametrize("gamma_pd", [-0.2, 0.0, 0.2])
def test_every_spec_a_config_builds_compiles(system, include_unitary, gamma_pd):
    text, kinds = CONFIG_SYSTEMS[system]
    options = f"include_unitary = {include_unitary}\ngamma_pd = {gamma_pd}\n"
    if gamma_pd > 0.0:
        # the one setting that is not completely positive builds no spec
        with pytest.raises(ConfigError) as info:
            parse_config(text + "[dissipator]\n" + options)
        assert info.value.errors == [f"[dissipator] gamma_pd must be finite and <= 0, "
                                     f"got {gamma_pd}"]
        return
    gen = parse_config(text + "[dissipator]\n" + options).spec.compiled
    assert (gen.V is None) == (system != "two_level")
    # the deprecated kind still names a route the system has, and changes nothing
    for kind in kinds:
        with pytest.warns(FutureWarning, match=r"\[dissipator\] kind has no effect"):
            cfg = parse_config(text + f"[dissipator]\nkind = {kind}\n" + options)
        keyed = cfg.spec.compiled
        assert keyed.rule == gen.rule
        assert keyed.W.tobytes() == gen.W.tobytes() and keyed.E.tobytes() == gen.E.tobytes()


@pytest.mark.parametrize("num_draws", [0, -5])
def test_parse_rejects_non_positive_num_draws(tmp_path, capsys, num_draws):
    cfg = write(tmp_path, "v.cfg", VERIFY_CFG.format(n=num_draws))
    assert main(["verify-algebra", "--config", cfg, "--out", str(tmp_path)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "validation", "messages": ["[verify] num_draws must be >= 1"]}
    assert not (tmp_path / "verify_algebra.csv").exists()


# ----------------------------------------------------------------- state files


def test_matrix_text_round_trip():
    rng = np.random.default_rng(60)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = parse_matrix_text(format_matrix_text(M))
    np.testing.assert_array_equal(back, M)


def test_matrix_text_rejects_ragged_input():
    with pytest.raises(ValueError, match="square"):
        parse_matrix_text("1+0i 0+0i\n1+0i\n")


def entry_text(M):
    """State-file text written one entry at a time, the reference for the
    row template and for the diagonal writer of ``fixed-point``."""
    return "".join(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) + "\n"
                   for row in np.asarray(M, dtype=complex))


# nan, +-inf, -0, the smallest subnormal, a huge and negative values
EDGE = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300,
        -0.5, 0.1, 1 / 3]


def complex_matrix(re, im):
    M = np.empty(np.shape(re), dtype=complex)
    M.real, M.imag = re, im
    return M


def test_matrix_text_row_template_writes_the_per_entry_text():
    rng = np.random.default_rng(62)
    edge = complex_matrix(rng.choice(EDGE, (12, 12)), rng.choice(EDGE, (12, 12)))
    wide = complex_matrix(*rng.standard_normal((2, 40, 40)) * np.exp(
        rng.uniform(-700.0, 700.0, (2, 40, 40))))
    for M in (edge, edge.T, wide, wide[::2, 1::2], np.diag(EDGE).astype(complex)):
        assert format_matrix_text(M) == entry_text(M)
    assert format_matrix_text([[complex(-0.0, 5e-324)]]) == "-0+4.9406564584124654e-324i\n"


@pytest.mark.parametrize("entry", ["inf+0i", "-inf+0i", "0+infi", "0-infi", "nan+0i",
                                   "1+nani"])
def test_matrix_text_with_a_non_finite_entry_is_rejected_as_non_finite(entry):
    # only the trailing imaginary unit is read as j, so "inf" parses
    with pytest.raises(ValueError, match="state file contains non-finite entries"):
        parse_matrix_text(f"{entry} 0+0i\n0+0i 1+0i\n")


def test_state_file_with_an_infinite_entry_exits_as_validation(tmp_path, capsys):
    gp, gm = thermal_rates()
    state_path = write(tmp_path, "rho0.txt",
                       format_matrix_text(complex_matrix([[math.inf, 0], [0, 1]], 0.0)))
    text = TWO_LEVEL_CFG.format(gp=gp, gm=gm).replace(
        "type = gibbs\nT = 1.0", f"type = file\npath = {state_path}")
    cfg = write(tmp_path, "inf.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "validation", "messages": ["state file contains non-finite entries"]}


# ------------------------------------------------------------------ CSV rows


def test_row_format_writes_the_text_of_the_cell_format():
    # nan, +-inf, -0, the smallest and largest subnormals, the smallest normal,
    # the largest finite and values that need all 17 digits
    edge = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
            2.225073858507201e-308, 2.2250738585072014e-308, 1e-310,
            1.7976931348623157e308, 0.1, 1 / 3, 2.0 ** 53 + 2, -123456789.012345678]
    rng = np.random.default_rng(61)
    wide = rng.standard_normal(20000) * np.exp(rng.uniform(-700.0, 700.0, 20000))
    table = np.concatenate([edge, wide])[: 5 * 4003].reshape(-1, 5)
    assert _float_lines(table) == [",".join(_fmt(x) for x in row) for row in table]
    assert _float_lines([[-0.0, math.nan, 5e-324]]) == ["-0,nan,4.9406564584124654e-324"]


def test_row_format_appends_a_label_column():
    table = np.array([[0.1, math.nan], [-0.0, 2.5]])
    labels = ["true", "false"]
    assert _float_lines(table, labels) == [f"{line},{label}" for line, label
                                           in zip(_float_lines(table), labels)]
    assert _float_lines(table, labels) == ["0.10000000000000001,nan,true", "-0,2.5,false"]


# ------------------------------------------------------------------- simulate


def test_simulate_gibbs_initial_state_constant_populations(tmp_path):
    gp, gm = thermal_rates()
    cfg = write(tmp_path, "run.cfg", TWO_LEVEL_CFG.format(gp=gp, gm=gm))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    comments, header, rows = read_csv(tmp_path / "traj.csv")
    assert header[0] == "t"
    assert "p_0" in header and "abs_rho_0_1" in header and "trace_dev" in header
    p0 = np.array([float(r[header.index("p_0")]) for r in rows])
    p1 = np.array([float(r[header.index("p_1")]) for r in rows])
    assert np.abs(p0 - p0[0]).max() <= 1e-9
    assert np.abs(p1 - p1[0]).max() <= 1e-9


def test_simulate_deterministic_output(tmp_path):
    gp, gm = thermal_rates()
    cfg = write(tmp_path, "run.cfg", TWO_LEVEL_CFG.format(gp=gp, gm=gm))
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "traj.csv").read_bytes() == (tmp_path / "b" / "traj.csv").read_bytes()


def test_simulate_from_level_and_matrix_file(tmp_path):
    gp, gm = thermal_rates()
    base = TWO_LEVEL_CFG.format(gp=gp, gm=gm)
    level_cfg = base.replace("type = gibbs\nT = 1.0", "type = level\nindex = 0")
    cfg = write(tmp_path, "level.cfg", level_cfg)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0

    state = np.array([[0.25, 0.0], [0.0, 0.75]], dtype=complex)
    state_path = write(tmp_path, "rho0.txt", format_matrix_text(state))
    file_cfg = base.replace("type = gibbs\nT = 1.0", f"type = file\npath = {state_path}")
    cfg = write(tmp_path, "file.cfg", file_cfg)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_simulate_validation_failure_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", "[system]\ntype = two_level\nE = -1\neps = 0,0,1\ngamma_p = 1\ngamma_m = 0\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "validation"
    assert record["messages"]


def test_simulate_numerical_failure_exit_code(tmp_path, capsys):
    # rates of 1e300 give a finite W, but W times one step of 1e10 overflows
    # the population map, and the check of the records stops the run
    text = ("[system]\ntype = explicit\nenergies = 0, 1, 2\n"
            "transitions = 0:1:1e300:1e300; 1:2:1e300:1e300\n\n"
            "[initial]\ntype = level\nindex = 0\n\n"
            "[integration]\nt_final = 1e10\ndt = 1e10\n\n[output]\npath = traj.csv\n")
    cfg = write(tmp_path, "div.cfg", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "numerical", "messages": ["NaN/Inf encountered before t=1e+10"]}
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("sub", ["simulate", "fixed-point", "canonical"])
def test_a_positive_gamma_pd_exits_as_validation(tmp_path, capsys, sub):
    # gamma_pd > 0 is the jump L = H at a negative rate: not completely
    # positive, so every subcommand that builds a spec refuses it
    text = OSCILLATOR_RUN_CFG.replace("[integration]", "[dissipator]\ngamma_pd = 0.4\n\n"
                                                       "[integration]")
    cfg = write(tmp_path, "pd.cfg", text)
    assert main([sub, "--config", cfg, "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "validation",
        "messages": ["[dissipator] gamma_pd must be finite and <= 0, got 0.4"]}
    assert os.listdir(tmp_path) == ["pd.cfg"]


OSCILLATOR_RUN_CFG = """\
[system]
type = oscillator
N = 6
spacing = 1.0
bath_T = 1.0

[integration]
t_final = 3.0
dt = 0.01

[canonical]
T0 = 2.0

[output]
path = out.csv
"""


@pytest.mark.parametrize("sub", ["simulate", "canonical"])
@pytest.mark.parametrize("key, value, message", [
    ("t_final", "inf", "[integration] t_final must be positive and finite"),
    ("t_final", "nan", "[integration] t_final must be positive and finite"),
    ("dt", "inf", "[integration] dt must be positive and finite"),
    ("dt", "nan", "[integration] dt must be positive and finite"),
    ("t_final", "1e300", "steps overflow the record index"),
    ("dt", "1e-300", "steps overflow the record index"),
    ("t_final", "1e13", "over the record limit"),  # 1e15 steps fit the index, not memory
])
def test_non_finite_or_overflowing_times_exit_as_validation(tmp_path, capsys, sub, key,
                                                             value, message):
    old = "t_final = 3.0" if key == "t_final" else "dt = 0.01"
    cfg = write(tmp_path, "t.cfg", OSCILLATOR_RUN_CFG.replace(old, f"{key} = {value}"))
    assert main([sub, "--config", cfg, "--out", str(tmp_path)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "validation"
    assert any(message in m for m in record["messages"]), record
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("what, code", [("populations", 0), ("coherences", 1), ("all", 1)])
def test_simulate_states_over_the_record_limit_exit_as_validation(tmp_path, capsys,
                                                                   monkeypatch, what, code):
    # 301 records of the N=6 Gibbs start take 26 kB; as 6x6 states, 173 kB
    monkeypatch.setattr(sys.modules["ebloch.propagate"], "MAX_RECORD_BYTES", 100_000)
    text = OSCILLATOR_RUN_CFG.replace("path = out.csv", f"path = out.csv\nwhat = {what}")
    cfg = write(tmp_path, "t.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == code
    if code:
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "validation", "messages": [
            "301 states of dim 6 need 1.73e+05 bytes, over the record limit of 1e+05; "
            "raise record_every or shorten the run"]}
    assert (tmp_path / "out.csv").exists() == (code == 0)


@pytest.mark.parametrize("sub", ["simulate", "fixed-point"])
@pytest.mark.parametrize("energy", ["inf", "nan"])
def test_explicit_system_with_non_finite_energy_exits_as_validation(tmp_path, capsys, sub,
                                                                    energy):
    text = (f"[system]\ntype = explicit\nenergies = 0, 1, {energy}\n"
            "transitions = 0:1:0.5:1.0\n[integration]\nt_final = 1.0\ndt = 0.1\n")
    cfg = write(tmp_path, "e.cfg", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([sub, "--config", cfg, "--out", str(tmp_path)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "validation",
                      "messages": [f"[system] energy of level 2 must be finite, got {energy}"]}


@pytest.mark.parametrize("sub", ["simulate", "fixed-point"])
def test_explicit_system_whose_out_rate_overflows_exits_as_validation(tmp_path, capsys, sub):
    # two rates of 1e308 out of level 1 sum to inf
    text = ("[system]\ntype = explicit\nenergies = 0, 1, 2\n"
            "transitions = 0:1:1e308:1e308; 1:2:1e308:1e308\n"
            "[initial]\ntype = level\nindex = 0\n[integration]\nt_final = 1.0\ndt = 0.1\n")
    cfg = write(tmp_path, "e.cfg", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([sub, "--config", cfg, "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "validation", "messages": ["level 1 has a non-finite out-rate inf"]}


def test_a_stiff_ladder_whose_record_map_is_not_stochastic_exits_as_numerical(tmp_path, capsys):
    # every rate 1e16 at dt 1: scaling and squaring leaves expm(W) with a
    # column that sums to 8.78, which would grow the populations
    text = ("[system]\ntype = explicit\nenergies = 0, 1, 2\n"
            "transitions = 0:1:1e16:1e16; 1:2:1e16:1e16\n"
            "[initial]\ntype = level\nindex = 0\n[integration]\nt_final = 1.0\ndt = 1.0\n")
    cfg = write(tmp_path, "e.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "numerical"
    assert re.fullmatch(r"the population map of a 1-step gap is not stochastic: its column "
                        r"sums differ from 1 by up to 7\.78", record["messages"][0]), record
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("case", INVALID_LADDERS)
def test_explicit_system_reports_each_invalid_ladder(tmp_path, capsys, case):
    energies, rows, message = INVALID_LADDERS[case]
    text = ("[system]\ntype = explicit\n"
            f"energies = {', '.join(map(str, energies))}\n"
            f"transitions = {'; '.join(':'.join(map(str, row)) for row in rows)}\n")
    cfg = write(tmp_path, "e.cfg", text)
    assert main(["fixed-point", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "validation",
                                                   "messages": [f"[system] {message}"]}


@pytest.mark.parametrize("name", ["traj%1.csv", "traj%(what)s.csv", "traj%%.csv"])
def test_config_values_are_read_verbatim(tmp_path, name):
    gp, gm = thermal_rates()
    text = TWO_LEVEL_CFG.format(gp=gp, gm=gm).replace("path = traj.csv", f"path = {name}")
    cfg = write(tmp_path, "v.cfg", text)
    assert parse_config(text).out_path == name
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, "v.cfg"])


def test_an_output_directory_that_cannot_be_created_exits_as_validation(tmp_path, capsys):
    gp, gm = thermal_rates()
    cfg = write(tmp_path, "fp.cfg", TWO_LEVEL_CFG.format(gp=gp, gm=gm))
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "x"
    assert main(["fixed-point", "--config", cfg, "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "validation"
    assert record["messages"] == [f"[Errno 20] Not a directory: {str(out)!r}"]
    assert (tmp_path / "afile").read_text() == ""


def test_simulate_missing_config_file(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


# ----------------------------------------------------------------- fixed-point


def test_fixed_point_outputs_report_and_state(tmp_path):
    gp, gm = thermal_rates(E=1.0, T=1.0)
    cfg = write(tmp_path, "fp.cfg", TWO_LEVEL_CFG.format(gp=gp, gm=gm))
    assert main(["fixed-point", "--config", cfg, "--out", str(tmp_path)]) == 0
    comments, header, rows = read_csv(tmp_path / "traj.csv")
    assert header == ["residual", "gibbs_distance", "spectral_gap", "multiplicity"]
    vals = dict(zip(header, rows[0]))
    assert float(vals["residual"]) <= 1e-10
    assert float(vals["gibbs_distance"]) <= 1e-10
    rho = parse_matrix_text((tmp_path / "traj.state.txt").read_text())
    assert rho.shape == (2, 2)
    assert abs(np.trace(rho) - 1.0) <= 1e-12


# the gkls entries keep the deprecated kind key, which the CLI reads and ignores
FIXED_POINT_SYSTEMS = {
    "eben32": "[system]\ntype = oscillator\nN = 32\nspacing = 1.0\nbath_T = 0.7\n",
    "gkls24": "[system]\ntype = oscillator\nN = 24\nspacing = 1.0\nbath_T = 1.3\n"
              "coupling_rule = constant\n[dissipator]\nkind = gkls\n",
    "explicit": CONFIG_SYSTEMS["explicit"][0],
    "tilted_ebe2": CONFIG_SYSTEMS["two_level"][0],
    "tilted_gkls": CONFIG_SYSTEMS["two_level"][0] + "[dissipator]\nkind = gkls\n",
}
IGNORE_KIND = pytest.mark.filterwarnings(r"ignore:\[dissipator\] kind:FutureWarning")


@IGNORE_KIND
@pytest.mark.parametrize("system", sorted(FIXED_POINT_SYSTEMS))
def test_fixed_point_state_file_is_the_per_entry_text(tmp_path, system):
    text = FIXED_POINT_SYSTEMS[system] + "[output]\npath = fp.csv\n"
    cfg = parse_config(text)
    report = fixed_point(cfg.spec, bath_T=cfg.bath_T)
    assert main(["fixed-point", "--config", write(tmp_path, "fp.cfg", text),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fp.state.txt").read_text() == entry_text(report.rho_stationary)


@IGNORE_KIND
@pytest.mark.parametrize("system", ["eben32", "tilted_gkls"])
def test_fixed_point_state_writers_keep_edge_values(tmp_path, monkeypatch, system):
    # a ladder (V None) writes row i from p[i]; a tilted H writes its
    # rotated-out state through format_matrix_text
    from ebloch import cli

    text = FIXED_POINT_SYSTEMS[system] + "[output]\npath = fp.csv\n"
    spec = parse_config(text).spec
    rng = np.random.default_rng(63)
    if system == "tilted_gkls":
        rho = complex_matrix(rng.choice(EDGE, (spec.dim, spec.dim)),
                             rng.choice(EDGE, (spec.dim, spec.dim)))
        assert format_matrix_text(rho) == entry_text(rho)
        return
    p = rng.choice(EDGE, spec.dim)
    p[:len(EDGE)] = EDGE
    report = FixedPointReport(p, 0.0, 0.0, 1.0, 1, spec.compiled)
    monkeypatch.setattr(cli, "fixed_point", lambda spec, bath_T=None: report)
    assert main(["fixed-point", "--config", write(tmp_path, "fp.cfg", text),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fp.state.txt").read_text() == entry_text(np.diag(p).astype(complex))


def test_fixed_point_files_are_the_same_under_eben_and_gkls(tmp_path):
    # the deprecated kind changes no byte, and neither does leaving it out;
    # ladders drawn as the benchmark's ladder fixed points are
    rng = np.random.default_rng(64)
    for k in range(12):
        system = (f"[system]\ntype = oscillator\nN = {3 + k % 6}\n"
                  f"spacing = {rng.uniform(0.5, 2.0)!r}\n"
                  f"coupling_rule = {('harmonic', 'constant')[k % 2]}\n"
                  f"gamma = {rng.uniform(0.5, 1.5)!r}\nbath_T = {rng.uniform(0.5, 2.0)!r}\n")
        written = []
        for kind in ("eben", "gkls", None):
            key = f"[dissipator]\nkind = {kind}\n\n" if kind else ""
            text = system + key + "[output]\npath = fp.csv\n"
            out = tmp_path / f"{k}{kind}"
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                assert main(["fixed-point", "--config", write(tmp_path, "fp.cfg", text),
                             "--out", str(out)]) == 0
            assert [w.category for w in record] == [FutureWarning] * bool(kind)
            written.append([(out / name).read_bytes() for name in ("fp.csv", "fp.state.txt")])
        assert written[0] == written[1] == written[2]


def test_fixed_point_without_the_unitary_part_has_one_stationary_state(tmp_path):
    # every coherence of the N=6 ladder decays, so only the populations'
    # stationary direction has lambda = 0
    text = ("[system]\ntype = oscillator\nN = 6\nspacing = 1.0\nbath_T = 1.0\n\n"
            "[dissipator]\ninclude_unitary = false\n\n[output]\npath = fp.csv\n")
    assert main(["fixed-point", "--config", write(tmp_path, "fp.cfg", text),
                 "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "fp.csv")
    assert rows[0][header.index("multiplicity")] == "1"


def test_fixed_point_of_a_fast_chain_has_one_stationary_state(tmp_path):
    # every rate 1e10: the round-off of eig(W) is far above 1e-6 in absolute
    # terms, but zero relative to the rates
    text = ("[system]\ntype = explicit\nenergies = 0, 1, 2\n"
            "transitions = 0:1:1e10:1e10; 1:2:1e10:1e10\n[output]\npath = fp.csv\n")
    assert main(["fixed-point", "--config", write(tmp_path, "fp.cfg", text),
                 "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "fp.csv")
    row = dict(zip(header, rows[0]))
    assert row["multiplicity"] == "1"
    assert float(row["spectral_gap"]) == pytest.approx(1e10, rel=1e-12)


def test_simulate_keeps_a_cross_block_coherent_start_positive(tmp_path):
    # (|0> + |2>)/sqrt(2) on a cold N=3 ladder: levels 0 and 2 share no
    # transition, and their coherence decays at half their out-rates
    state = write(tmp_path, "psi.txt", "0.5 0 0.5\n0 0 0\n0.5 0 0.5\n")
    text = ("[system]\ntype = oscillator\nN = 3\nspacing = 1.0\nbath_T = 0.2\n\n"
            f"[initial]\ntype = file\npath = {state}\n\n"
            "[integration]\nt_final = 10.0\ndt = 0.01\n\n"
            "[output]\npath = out.csv\nwhat = diagnostics\n")
    assert main(["simulate", "--config", write(tmp_path, "psi.cfg", text),
                 "--out", str(tmp_path)]) == 0
    comments, header, rows = read_csv(tmp_path / "out.csv")
    # half the population sits on the top level from the start
    assert [c.split(":")[1] for c in comments] == [" truncation leak"]
    assert min(float(row[header.index("min_eig")]) for row in rows) >= -1e-12


@pytest.mark.parametrize("system", ["two_level", "oscillator"])
def test_gibbs_start_takes_the_eigenbasis_of_the_compiled_spec(tmp_path, monkeypatch, system):
    # the start is the state gibbs_state builds, and a tilted H is decomposed
    # once per run (a ladder's diagonal H not at all)
    from ebloch import cli

    text = CONFIG_SYSTEMS[system][0] + (
        "[initial]\ntype = gibbs\nT = 1.5\n\n[integration]\nt_final = 1.0\ndt = 0.1\n\n"
        "[output]\npath = sim.csv\n")
    cfg = parse_config(text)
    assert cli.initial_state(cfg).tobytes() == gibbs_state(cfg.spec.hamiltonian, 1.5).tobytes()
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: calls.append(args) or eigh(*args))
    assert main(["simulate", "--config", write(tmp_path, "sim.cfg", text),
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == (system == "two_level")


def test_simulate_coherence_header_names_every_pair_at_n32(tmp_path):
    text = (FIXED_POINT_SYSTEMS["eben32"] + "[integration]\nt_final = 0.1\ndt = 0.05\n"
            "[output]\npath = sim.csv\nwhat = all\n")
    assert main(["simulate", "--config", write(tmp_path, "sim.cfg", text),
                 "--out", str(tmp_path)]) == 0
    _, header, _ = read_csv(tmp_path / "sim.csv")
    rows_i, cols_j = np.triu_indices(32, 1)
    assert header == ["t", *[f"p_{i}" for i in range(32)],
                      *[f"abs_rho_{i}_{j}" for i, j in zip(rows_i, cols_j)],
                      "trace_dev", "min_eig"]


def test_spec_without_a_split_exits_as_validation(tmp_path, capsys, monkeypatch):
    from ebloch import cli

    # no config builds such a spec; sigma_x does not shift energy by one gap of sigma_z/2
    spec = RhsSpec(SIGMA_Z / 2, jumps=((SIGMA_X, 1.0),))
    monkeypatch.setattr(cli, "parse_config",
                        lambda text: dataclasses.replace(parse_config(text), spec=spec))
    gp, gm = thermal_rates()
    cfg = write(tmp_path, "fp.cfg", TWO_LEVEL_CFG.format(gp=gp, gm=gm))
    for sub in ("fixed-point", "simulate"):
        assert main([sub, "--config", cfg, "--out", str(tmp_path)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert "jump 0" in record["messages"][0]


@pytest.mark.parametrize("kind", ["ebe2", "gkls"])
def test_tilted_two_level_runs_probe_no_superoperator(tmp_path, monkeypatch, kind):
    # whatever the deprecated kind names, no run applies a dissipator kernel
    calls = []
    dissipators = sys.modules["ebloch.dissipators"]
    for name in ("ebe_two_level", "_gkls", "double_commutator"):
        real = getattr(dissipators, name)
        counted = lambda *a, name=name, real=real: calls.append(name) or real(*a)
        # every binding in the package, so no module can reach the kernel
        bindings = [m for mod, m in list(sys.modules.items())
                    if mod.split(".")[0] == "ebloch" and getattr(m, name, None) is real]
        for module in bindings:
            monkeypatch.setattr(module, name, counted)
    gp, gm = thermal_rates()
    text = TWO_LEVEL_CFG.format(gp=gp, gm=gm).replace("eps = 0, 0, 1", "eps = 0.6, 0, 0.8")
    text += f"\n[dissipator]\nkind = {kind}\n"
    cfg = write(tmp_path, "tilted.cfg", text)
    for sub in ("fixed-point", "simulate"):
        with pytest.warns(FutureWarning, match=r"\[dissipator\] kind has no effect"):
            assert main([sub, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert calls == []


# -------------------------------------------------------------- verify-algebra


def test_verify_algebra_residual_table(tmp_path):
    text = """\
[system]
type = two_level
E = 1.0
eps = 0, 0, 1
gamma_p = 0.3
gamma_m = 0.7

[verify]
num_draws = 1000

[output]
path = verify.csv
"""
    cfg = write(tmp_path, "verify.cfg", text)
    assert main(["verify-algebra", "--config", cfg, "--seed", "7", "--out", str(tmp_path)]) == 0
    comments, header, rows = read_csv(tmp_path / "verify.csv")
    assert any("seed=7" in c for c in comments)
    assert len(rows) == 1000
    col = header.index("max_residual")
    assert max(float(r[col]) for r in rows) <= 1e-12
    assert all(r[header.index("passed")] == "true" for r in rows)


def test_verify_algebra_deterministic_per_seed(tmp_path):
    text = "[system]\ntype = two_level\nE = 1.0\neps = 0,0,1\ngamma_p = 0.3\ngamma_m = 0.7\n[verify]\nnum_draws = 10\n"
    cfg = write(tmp_path, "v.cfg", text)
    main(["verify-algebra", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "a")])
    main(["verify-algebra", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "verify_algebra.csv").read_bytes()
    assert a == (tmp_path / "b" / "verify_algebra.csv").read_bytes()
    main(["verify-algebra", "--config", cfg, "--seed", "4", "--out", str(tmp_path / "c")])
    assert a != (tmp_path / "c" / "verify_algebra.csv").read_bytes()


VERIFY_CFG = "[system]\ntype = two_level\nE = 1.0\neps = 0,0,1\ngamma_p = 0.3\ngamma_m = 0.7\n[verify]\nnum_draws = {n}\n"
RESIDUALS = ("sq_p", "sq_m", "comm", "anti", "triple_p", "triple_m", "eigenop", "max_residual")


def test_verify_algebra_makes_one_eigensolve_and_matches_a_per_draw_loop(tmp_path, monkeypatch):
    from ebloch import systems

    calls = []

    def counted(H, *args, **kwargs):
        calls.append(np.shape(H))
        return real_eig(H, *args, **kwargs)

    real_eig = systems.hermitian_eig
    monkeypatch.setattr(systems, "hermitian_eig", counted)
    cfg = write(tmp_path, "v.cfg", VERIFY_CFG.format(n=200))
    assert main(["verify-algebra", "--config", cfg, "--seed", "11", "--out", str(tmp_path)]) == 0
    assert calls == [(200, 2, 2)]
    _, header, rows = read_csv(tmp_path / "verify_algebra.csv")
    assert len(rows) == 200

    # independent route: one public call chain per draw on the same seed
    fmt = lambda x: format(float(x), ".17g")  # noqa: E731
    rng = np.random.default_rng(11)
    for k, row in enumerate(rows):
        E = float(rng.uniform(0.2, 5.0))
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        H = systems.build_two_level_hamiltonian(E, v)
        rep = systems.verify_jump_algebra(systems.jump_operators(H), H, E)
        got = dict(zip(header, row))
        assert [got[c] for c in ("draw", "E", "eps_x", "eps_y", "eps_z", "passed")] == [
            str(k), fmt(E), fmt(v[0]), fmt(v[1]), fmt(v[2]), str(bool(rep.passed)).lower()]
        want = dict(rep.residuals(), max_residual=rep.max_residual)
        for name in RESIDUALS:
            assert abs(float(got[name]) - want[name]) <= 1e-14


def test_cached_parser_keeps_no_state_between_calls(tmp_path):
    cfg = write(tmp_path, "v.cfg", VERIFY_CFG.format(n=3))
    assert main(["verify-algebra", "--config", cfg, "--seed", "5", "--out", str(tmp_path / "a")]) == 0
    assert main(["verify-algebra", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    comments, _, _ = read_csv(tmp_path / "a" / "verify_algebra.csv")
    assert "# seed=5" in comments
    comments, _, _ = read_csv(tmp_path / "b" / "verify_algebra.csv")
    assert "# seed=0" in comments
    assert main(["no-such-subcommand", "--config", cfg]) == 1


@pytest.mark.parametrize("argv, message", [
    ([], "ebloch: the following arguments are required: subcommand"),
    (["simulate"], "ebloch simulate: the following arguments are required: --config"),
    (["no-such", "--config", "x.cfg"], "ebloch: argument subcommand: invalid choice: 'no-such' "
     "(choose from 'simulate', 'fixed-point', 'verify-algebra', 'canonical', 'bench')"),
    (["simulate", "--config", "x.cfg", "--seed", "notanint"],
     "ebloch simulate: argument --seed: invalid int value: 'notanint'"),
    (["simulate", "--config"], "ebloch simulate: argument --config: expected one argument"),
    (["simulate", "--config", "--seed", "1"],
     "ebloch simulate: argument --config: expected one argument"),
    (["simulate", "--config", "x.cfg", "--foo", "1"], "ebloch: unrecognized arguments: --foo 1"),
    (["simulate", "--config", "x.cfg", "stray"], "ebloch: unrecognized arguments: stray"),
    # an option's prefix is not the option
    (["simulate", "--conf", "x.cfg"],
     "ebloch simulate: the following arguments are required: --config"),
    (["simulate", "--config=x.cfg", "--seed="],
     "ebloch simulate: argument --seed: invalid int value: ''"),
], ids=["no-subcommand", "no-config", "unknown-subcommand", "bad-seed", "config-without-value",
        "config-before-an-option", "unknown-option", "stray-positional", "option-prefix",
        "empty-seed"])
def test_usage_errors_exit_as_validation(capsys, argv, message):
    assert main(argv) == 1
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "validation", "messages": [message]}


def test_options_take_their_value_after_an_equals_sign(tmp_path):
    cfg = write(tmp_path, "v.cfg", VERIFY_CFG.format(n=3))
    assert main(["verify-algebra", "--config", cfg, "--seed", "5", "--out", str(tmp_path / "a")]) == 0
    assert main(["verify-algebra", f"--config={cfg}", "--seed=5", f"--out={tmp_path / 'b'}"]) == 0
    assert ((tmp_path / "a" / "verify_algebra.csv").read_bytes()
            == (tmp_path / "b" / "verify_algebra.csv").read_bytes())


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["simulate", "-h"],
                                  ["fixed-point", "--config", "x.cfg", "--help"]])
def test_help_prints_the_readme_usage_line_and_returns_0(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage = re.search(r"^ebloch <subcommand> .*$", readme, re.M).group(0)
    assert out.splitlines() == [f"usage: {usage}",
                                "subcommands: simulate, fixed-point, verify-algebra, canonical, bench"]
    assert err == ""


def test_a_config_that_is_not_utf8_exits_as_validation(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"# caf\xe9\n[system]\ntype = two_level\n")
    assert main(["fixed-point", "--config", str(path), "--out", str(tmp_path)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "validation", "messages": [
        "cannot read config: 'utf-8' codec can't decode byte 0xe9 in position 5: "
        "invalid continuation byte"]}


def test_help_exits_0_and_a_usage_error_exits_1_from_the_shell(tmp_path):
    src = str(Path(ebloch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    codes = [subprocess.run([sys.executable, "-m", "ebloch.cli", *argv], cwd=tmp_path, env=env,
                            capture_output=True, timeout=120).returncode
             for argv in (["--help"], ["simulate", "-h"], ["simulate"])]
    assert codes == [0, 0, 1]


def test_outputs_honor_the_umask(tmp_path):
    gp, gm = thermal_rates()
    cfg = write(tmp_path, "fp.cfg", TWO_LEVEL_CFG.format(gp=gp, gm=gm))
    out = tmp_path / "out"
    old = os.umask(0o022)
    try:
        for _ in range(2):  # a new file, then one that replaces it
            assert main(["fixed-point", "--config", cfg, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert sorted(p.name for p in out.iterdir()) == ["traj.csv", "traj.state.txt"]
    assert [stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()] == [0o644, 0o644]


def test_a_failed_write_leaves_the_old_file_and_no_temporary(tmp_path, monkeypatch):
    from ebloch import cli

    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def fail(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError, match="no space"):
        cli._write_atomic(str(target), "new\n")
    assert os.listdir(tmp_path) == ["out.csv"]
    assert target.read_text() == "old\n"


# ------------------------------------------------------------------- canonical


def test_canonical_subcommand(tmp_path):
    text = """\
[system]
type = oscillator
N = 8
spacing = 13.0
coupling_rule = harmonic
gamma = 1.0
bath_T = 1.0

[integration]
t_final = 2.0
dt = 0.001
record_every = 40

[canonical]
T0 = 2.0

[output]
path = canon.csv
"""
    cfg = write(tmp_path, "canon.cfg", text)
    assert main(["canonical", "--config", cfg, "--out", str(tmp_path)]) == 0
    comments, header, rows = read_csv(tmp_path / "canon.csv")
    assert header[:3] == ["t", "mean_ratio", "a"]
    assert any("ode_mismatch=" in c for c in comments)
    mism = float(next(c for c in comments if "ode_mismatch=" in c).split("=")[1])
    assert mism <= 1e-8


def test_canonical_subcommand_cold_quench(tmp_path):
    text = """\
[system]
type = oscillator
N = 14
spacing = 10.0
bath_T = 1.0

[integration]
t_final = 3.0
dt = 0.001
record_every = 25

[canonical]
T0 = 0.3

[output]
path = canon.csv
"""
    cfg = write(tmp_path, "cold.cfg", text)
    assert main(["canonical", "--config", cfg, "--out", str(tmp_path)]) == 0
    comments, _, _ = read_csv(tmp_path / "canon.csv")
    assert float(next(c for c in comments if "ode_mismatch=" in c).split("=")[1]) <= 1e-8


def test_canonical_subcommand_rejects_infinite_start_temperature(tmp_path, capsys):
    text = """\
[system]
type = oscillator
N = 6
spacing = 1.0
bath_T = 1.0

[integration]
t_final = 3.0
dt = 0.01

[canonical]
T0 = inf

[output]
path = canon.csv
"""
    cfg = write(tmp_path, "hot.cfg", text)
    assert main(["canonical", "--config", cfg, "--out", str(tmp_path)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "validation"
    assert "T0 must be a finite positive temperature" in record["messages"][0]
    assert not (tmp_path / "canon.csv").exists()


def test_canonical_requires_ladder(tmp_path, capsys):
    gp, gm = thermal_rates()
    cfg = write(tmp_path, "c.cfg", TWO_LEVEL_CFG.format(gp=gp, gm=gm) + "\n[canonical]\nT0 = 2.0\n")
    assert main(["canonical", "--config", cfg, "--out", str(tmp_path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("value", ["rk4", "expm"])
@pytest.mark.parametrize("sub", ["simulate", "canonical"])
def test_deprecated_method_key_warns_and_changes_no_output(tmp_path, sub, value):
    plain = write(tmp_path, "plain.cfg", OSCILLATOR_RUN_CFG)
    keyed = write(tmp_path, "keyed.cfg",
                  OSCILLATOR_RUN_CFG.replace("dt = 0.01", f"dt = 0.01\nmethod = {value}"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([sub, "--config", plain, "--out", str(tmp_path / "plain")]) == 0
    with pytest.warns(FutureWarning, match=r"\[integration\] method has no effect") as record:
        assert main([sub, "--config", keyed, "--out", str(tmp_path / "keyed")]) == 0
    assert len(record) == 1
    assert ((tmp_path / "keyed" / "out.csv").read_bytes()
            == (tmp_path / "plain" / "out.csv").read_bytes())


def test_method_key_outside_its_choices_exits_as_validation(tmp_path, capsys):
    text = OSCILLATOR_RUN_CFG.replace("dt = 0.01", "dt = 0.01\nmethod = euler")
    cfg = write(tmp_path, "euler.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "validation",
        "messages": ["[integration] method = 'euler': must be one of expm, rk4"]}
    assert not (tmp_path / "out.csv").exists()


def test_canonical_writes_the_same_bytes_under_every_dissipator_setting(tmp_path):
    # canonical records populations only, and they move under W, which the
    # transitions alone build: no accepted [dissipator] key can change a byte,
    # and a positive gamma_pd is refused
    plain = write(tmp_path, "plain.cfg", OSCILLATOR_RUN_CFG)
    assert main(["canonical", "--config", plain, "--out", str(tmp_path / "plain")]) == 0
    want = (tmp_path / "plain" / "out.csv").read_bytes()
    for kind in ("eben", "gkls"):
        for include_unitary in ("true", "false"):
            for gamma_pd in ("-0.5", "0", "0.5"):
                text = (OSCILLATOR_RUN_CFG + f"[dissipator]\nkind = {kind}\n"
                        f"include_unitary = {include_unitary}\ngamma_pd = {gamma_pd}\n")
                out = tmp_path / f"{kind}-{include_unitary}-{gamma_pd}"
                with pytest.warns(FutureWarning, match=r"\[dissipator\] kind has no effect"):
                    code = main(["canonical", "--config", write(tmp_path, "d.cfg", text),
                                 "--out", str(out)])
                if gamma_pd == "0.5":
                    assert code == 1 and not out.exists()
                    continue
                assert code == 0
                assert (out / "out.csv").read_bytes() == want, out.name


@pytest.mark.parametrize("subcommand, config, why", [
    ("canonical", OSCILLATOR_RUN_CFG, "canonical always starts from Gibbs at [canonical] T0"),
    ("verify-algebra", "[system]\ntype = two_level\nE = 1.0\neps = 0, 0, 1\ngamma_p = 0.3\n"
                       "gamma_m = 0.7\n\n[verify]\nnum_draws = 5\n\n[output]\npath = out.csv\n",
     "verify-algebra draws random two-level Hamiltonians"),
    ("bench", "[system]\ntype = two_level\nE = 1.0\neps = 0, 0, 1\ngamma_p = 0.3\n"
              "gamma_m = 0.7\n\n[bench]\napplications = 8\nchunks = 2\n\n[output]\n"
              "path = out.csv\n",
     "bench applies its kernels to random states"),
])
def test_runs_without_an_initial_state_reject_an_initial_section(tmp_path, capsys,
                                                                  subcommand, config, why):
    # any [initial] section, even one that restates the default, would be
    # ignored: the quench always starts from Gibbs at [canonical] T0, and
    # neither verify-algebra nor bench propagates anything
    assert main([subcommand, "--config", write(tmp_path, "ok.cfg", config),
                 "--out", str(tmp_path / "ok")]) == 0
    for section in ("type = level\nindex = 1\n", "type = gibbs\n", ""):
        cfg = write(tmp_path, "c.cfg", config + "[initial]\n" + section)
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "validation", "messages": [f"[initial] is not read: {why}"]}
        assert not (tmp_path / "out.csv").exists()


# ----------------------------------------------------------------------- bench


def test_bench_checksums_match(tmp_path):
    gp, gm = thermal_rates()
    text = TWO_LEVEL_BENCH_CFG.format(gp=gp, gm=gm) + "\n[bench]\napplications = 2000\nchunks = 4\n"
    cfg = write(tmp_path, "bench.cfg", text)
    assert main(["bench", "--config", cfg, "--seed", "11", "--out", str(tmp_path)]) == 0
    comments, header, rows = read_csv(tmp_path / "traj.csv")
    assert any("checksums_match=true" in c for c in comments)
    assert any("seed=11" in c for c in comments)
    kcol, ccol = header.index("kernel"), header.index("checksum")
    sums = {r[kcol]: r[ccol] for r in rows}
    assert sums["ebe2"] == sums["gkls"]
    ratio = float(rows[0][header.index("ratio_to_gkls")])
    assert ratio > 0


@pytest.mark.parametrize("eps", ["0, 0, 1", "0.6, 0, 0.8"])
def test_bench_runs_on_a_tiny_gap_with_matching_checksums(tmp_path, eps):
    # E = 1e-13 builds its GKLS terms: system jump terms no longer go through
    # jump_operators, whose degeneracy test refused such a gap
    text = (TWO_LEVEL_BENCH_CFG.format(gp=0.3, gm=0.7).replace("E = 1.0", "E = 1e-13")
            .replace("eps = 0, 0, 1", f"eps = {eps}")
            + "\n[bench]\napplications = 2000\nchunks = 4\n")
    cfg = write(tmp_path, "bench.cfg", text)
    assert main(["bench", "--config", cfg, "--seed", "3", "--out", str(tmp_path)]) == 0
    comments, header, rows = read_csv(tmp_path / "traj.csv")
    assert any("checksums_match=true" in c for c in comments)
    sums = {r[header.index("kernel")]: r[header.index("checksum")] for r in rows}
    assert sums["ebe2"] == sums["gkls"]


OSCILLATOR_BENCH_CFG = """\
[system]
type = oscillator
N = 10
spacing = 1.0
coupling_rule = harmonic
gamma = {scale}
bath_T = 1.0

[bench]
applications = 2000
chunks = 4

[output]
path = bench.csv
"""


@pytest.mark.parametrize("system, scales", [("two_level", (1e-6, 1.0, 1e9)),
                                            ("ladder", (1.0, 1e12))])
def test_bench_checksum_is_relative_to_the_rates(tmp_path, system, scales):
    # both kernels are linear in the rates, so the quantum scales with the
    # largest gamma_p + gamma_m: the checksum reads the same at every rate
    # unit, where a bare 1e-3 reads 0:0 at 1e-6 and splits the kernels at 1e9
    seen = set()
    for scale in scales:
        if system == "two_level":
            text = (TWO_LEVEL_BENCH_CFG.format(gp=0.3 * scale, gm=0.7 * scale)
                    .replace("eps = 0, 0, 1", "eps = 0.6, 0, 0.8")
                    + "\n[bench]\napplications = 2000\nchunks = 4\n")
        else:
            text = OSCILLATOR_BENCH_CFG.format(scale=scale)
        out = tmp_path / f"{system}{scale:g}"
        cfg = write(tmp_path, "bench.cfg", text)
        assert main(["bench", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
        [csv] = out.iterdir()
        comments, header, rows = read_csv(csv)
        assert "# checksums_match=true" in comments
        seen |= {r[header.index("checksum")] for r in rows}
    assert len(seen) == 1 and seen != {"0:0"}, seen


def test_bench_takes_its_deviation_over_the_inputs_it_timed(tmp_path, monkeypatch):
    # above 20,000 applications a two-level run checks the first 20,000
    seen = []
    deviation = bench.max_deviation

    def spy(pair, inputs):
        seen.append(np.copy(inputs))
        return deviation(pair, inputs)

    monkeypatch.setattr(bench, "max_deviation", spy)
    gp, gm = thermal_rates()
    text = TWO_LEVEL_BENCH_CFG.format(gp=gp, gm=gm) + "\n[bench]\napplications = 20003\nchunks = 2\n"
    cfg = write(tmp_path, "bench.cfg", text)
    assert main(["bench", "--config", cfg, "--seed", "5", "--out", str(tmp_path)]) == 0
    timed = bench.random_states(2, 20003, np.random.default_rng(5))
    [inputs] = seen
    np.testing.assert_array_equal(inputs, timed[:20000])
    comments, _, _ = read_csv(tmp_path / "traj.csv")
    assert comments[-1].endswith(" over 20000 inputs")


def test_bench_ladder_uses_dense_inputs(tmp_path, monkeypatch):
    # the ladder kernels are one map on every state, so the checksum gate
    # covers coherences too
    draw, drawn = bench.random_states, []
    monkeypatch.setattr(bench, "random_states", lambda *args: drawn.append(draw(*args))
                        or drawn[-1])
    text = """\
[system]
type = oscillator
N = 6
spacing = 1.0
coupling_rule = harmonic
gamma = 1.0
bath_T = 1.0

[bench]
applications = 500
chunks = 2

[output]
path = bench.csv
"""
    cfg = write(tmp_path, "bl.cfg", text)
    assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 0
    [inputs] = drawn
    assert np.count_nonzero(inputs[:, ~np.eye(6, dtype=bool)]) == 500 * 30
    _, header, rows = read_csv(tmp_path / "bench.csv")
    sums = {r[header.index("kernel")]: r[header.index("checksum")] for r in rows}
    assert sums["eben"] == sums["gkls"]


def readme_csv_columns() -> dict:
    """Backticked column names of each bullet under README's "CSV columns
    per subcommand", up to the bullet's first ';' or full stop."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("CSV columns per subcommand:\n", 1)[1].strip().split("\n\n", 1)[0]
    columns = {}
    for bullet in section.split("\n* "):
        name, body = " ".join(bullet.lstrip("* ").split()).split(": ", 1)
        columns[name.strip("`")] = re.findall(r"`([^`]+)`", re.split(r";|\.(?: |$)", body)[0])
    return columns


def test_readme_csv_columns_are_the_headers_the_cli_writes(tmp_path):
    gp, gm = thermal_rates()
    two_level = TWO_LEVEL_BENCH_CFG.format(gp=gp, gm=gm) + "[bench]\napplications = 8\nchunks = 2\n"
    ladder = ("[system]\ntype = oscillator\nN = 4\nspacing = 1.0\nbath_T = 1.0\n"
              "[integration]\nt_final = 0.1\ndt = 0.01\nrecord_every = 5\n"
              "[canonical]\nT0 = 2.0\n[output]\npath = traj.csv\n")
    documented = readme_csv_columns()
    for command, text in (("fixed-point", two_level), ("canonical", ladder),
                          ("bench", two_level)):
        out = tmp_path / command
        assert main([command, "--config", write(tmp_path, f"{command}.cfg", text),
                     "--out", str(out)]) == 0
        _, header, _ = read_csv(out / "traj.csv")
        assert documented[command] == header, command


def test_linear_algebra_failure_exits_as_numerical(tmp_path, capsys, monkeypatch):
    from ebloch import cli

    def singular(cfg, seed, out_dir):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setitem(cli._RUNNERS, "fixed-point", singular)
    gp, gm = thermal_rates()
    cfg = write(tmp_path, "fp.cfg", TWO_LEVEL_CFG.format(gp=gp, gm=gm))
    assert main(["fixed-point", "--config", cfg, "--out", str(tmp_path)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "numerical", "messages": ["Singular matrix"]}


# ------------------------------------------------------------ determinism


def test_a_blas_thread_count_moves_only_the_last_bits(tmp_path):
    # output is byte-identical only at one BLAS thread count; across counts a
    # multithreaded BLAS may sum in another order (README, Output)
    text = ("[system]\ntype = oscillator\nN = 200\nspacing = 1.0\nbath_T = 1.0\n\n"
            "[initial]\ntype = level\nindex = 0\n\n"
            "[integration]\nt_final = 5.0\ndt = 0.01\nrecord_every = 1\n\n"
            "[output]\npath = pops.csv\nwhat = populations\n")
    cfg = write(tmp_path, "n200.cfg", text)
    src = str(Path(ebloch.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "ebloch.cli", "simulate", "--config", cfg,
                        "--out", str(out)], check=True, capture_output=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads})
        _, _, rows = read_csv(out / "pops.csv")
        tables.append(np.array(rows, dtype=float))
    assert tables[0].shape == (501, 201)
    np.testing.assert_allclose(tables[1], tables[0], rtol=1e-12, atol=1e-30)


# ------------------------------------------------------------------ cold start

# run in a fresh interpreter, since the test process has SciPy loaded already
COLD_START_SCRIPT = """\
import json, sys
from ebloch.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print("loaded:" + ",".join(m for m in json.loads(sys.argv[2]) if m in sys.modules))
"""


def _loaded_after(tmp_path, calls, modules=("scipy", "scipy.linalg", "scipy.special")):
    """Which of ``modules`` a fresh interpreter has loaded after the calls."""
    src = str(Path(ebloch.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argvs = [[sub, "--config", cfg, "--out", str(tmp_path)] for sub, cfg in calls]
    result = subprocess.run([sys.executable, "-c", COLD_START_SCRIPT, json.dumps(argvs),
                             json.dumps(modules)],
                            cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.splitlines()[-1].removeprefix("loaded:")
    return [m for m in loaded.split(",") if m]


def test_simulate_canonical_and_fixed_point_runs_leave_scipy_linalg_and_special_unloaded(tmp_path):
    cfg = write(tmp_path, "osc.cfg", OSCILLATOR_RUN_CFG)
    assert _loaded_after(tmp_path, [("simulate", cfg), ("canonical", cfg),
                                    ("fixed-point", cfg)]) == []


def test_no_run_loads_scipy_linalg_or_special(tmp_path):
    # the exact flow is NumPy's own Pade expm, so no run loads either
    osc = OSCILLATOR_RUN_CFG
    gp, gm = thermal_rates()
    tilted = (TWO_LEVEL_CFG.format(gp=gp, gm=gm).replace("eps = 0, 0, 1", "eps = 0.6, 0, 0.8")
              + "\n[bench]\napplications = 100\nchunks = 2\n")
    calls = [("simulate", write(tmp_path, "osc.cfg", osc)),
             ("simulate", write(tmp_path, "tilted.cfg", tilted)),
             ("canonical", write(tmp_path, "canonical.cfg", OSCILLATOR_RUN_CFG)),
             ("fixed-point", str(tmp_path / "osc.cfg")),
             ("bench", write(tmp_path, "tilted_bench.cfg", tilted.replace(GIBBS_START, ""))),
             ("verify-algebra", write(tmp_path, "v.cfg", VERIFY_CFG.format(n=20)))]
    # the config reader is the package's own: no run imports configparser
    assert _loaded_after(tmp_path, calls, ("scipy", "scipy.linalg", "scipy.special",
                                           "configparser")) == []


def test_csv_writing_runs_leave_fractions_decimal_and_statistics_unloaded(tmp_path):
    # tables of 7,224, 2,107 and 650 values, all on the array path: its
    # power table is built from Python ints alone
    cfg = write(tmp_path, "osc.cfg", OSCILLATOR_RUN_CFG)
    calls = [("simulate", cfg), ("canonical", cfg),
             ("verify-algebra", write(tmp_path, "v.cfg", VERIFY_CFG.format(n=50)))]
    assert _loaded_after(tmp_path, calls, ("fractions", "decimal", "statistics")) == []


def test_bench_leaves_numpy_ma_and_statistics_unloaded(tmp_path):
    # the median over chunks is taken by hand: np.median imports numpy.ma,
    # and statistics imports decimal and fractions
    gp, gm = thermal_rates()
    text = TWO_LEVEL_BENCH_CFG.format(gp=gp, gm=gm) + "\n[bench]\napplications = 100\nchunks = 4\n"
    assert _loaded_after(tmp_path, [("bench", write(tmp_path, "b.cfg", text))],
                         ("numpy.ma", "statistics", "decimal")) == []
