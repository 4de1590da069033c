"""End-to-end tests of the command-line front end and config parsing."""

import ast
import dataclasses
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ebloch
from ebloch.cli import (
    ConfigError,
    _float_lines,
    _fmt,
    format_matrix_text,
    main,
    parse_config,
    parse_matrix_text,
)
from ebloch.dissipators import RhsSpec
from ebloch.stationary import FixedPointReport, fixed_point
from ebloch.systems import SIGMA_X, SIGMA_Z, TwoLevelSystem

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
    assert cfg.method == "expm"
    assert cfg.record_every == 10
    assert cfg.spec.kind == "ebe2"
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
    assert (spec.kind, spec.include_unitary, spec.gamma_pd) == ("ebe2", True, 0.0)
    defaults = {name: getattr(cfg, name) for name in vars(cfg) if name != "spec"}
    assert defaults == {
        "bath_T": 2.0,
        "initial": ("gibbs", None),
        "t_final": None,
        "dt": None,
        "method": "expm",
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
    with pytest.raises(ConfigError) as exc:
        parse_config("[system\ntype = two_level\n")
    assert any("line" in e.lower() for e in exc.value.errors)


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
    sums = [t.gamma_sum for t in cfg.spec.system.transitions]
    np.testing.assert_allclose(sums, [0.5 * (i + 1) for i in range(11)], rtol=1e-13)
    assert cfg.spec.kind == "eben"


def test_parse_explicit_system():
    text = """\
[system]
type = explicit
energies = 0, 1.0, 2.7
transitions = 0:1:0.2:0.8; 1:2:0.1:0.9
"""
    cfg = parse_config(text)
    assert cfg.spec.system.N == 3
    assert cfg.spec.system.transitions[1].E_t == pytest.approx(1.7)


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
    with pytest.raises(ConfigError, match="kind 'ebe2' needs a TwoLevelSystem"):
        parse_config(text)


@pytest.mark.parametrize("system, kind", [("oscillator", "ebe2"), ("two_level", "eben")])
def test_kind_system_mismatch_is_collected_with_the_other_errors(system, kind):
    text = (CONFIG_SYSTEMS[system][0] + f"[dissipator]\nkind = {kind}\n"
            "[integration]\nt_final = -3\n")
    with pytest.raises(ConfigError) as exc:
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
    # written next to it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        for seed in (1, 3, 7):
            workload = workloads.build(name, seed)
            for job in workload.warmup + workload.jobs:
                parse_config(job.config_text())


@pytest.mark.parametrize("system", sorted(CONFIG_SYSTEMS))
@pytest.mark.parametrize("include_unitary", ["true", "false"])
@pytest.mark.parametrize("gamma_pd", [-0.2, 0.0, 0.2])
def test_every_spec_a_config_builds_compiles(system, include_unitary, gamma_pd):
    text, kinds = CONFIG_SYSTEMS[system]
    for kind in kinds:
        cfg = parse_config(text + f"[dissipator]\nkind = {kind}\n"
                           f"include_unitary = {include_unitary}\ngamma_pd = {gamma_pd}\n")
        gen = cfg.spec.compiled
        assert (gen.V is None) == (system != "two_level")


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
    gp, gm = thermal_rates()
    text = TWO_LEVEL_CFG.format(gp=gp, gm=gm) + "\n[dissipator]\nkind = ebe2\ngamma_pd = 60.0\n"
    text = text.replace("type = gibbs\nT = 1.0", "type = level\nindex = 0")
    # amplifying dephasing with an off-diagonal initial state diverges under rk4
    text = text.replace("record_every = 10", "record_every = 10\nmethod = rk4")
    state = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
    state_path = write(tmp_path, "rho0.txt", format_matrix_text(state))
    text = text.replace("type = level\nindex = 0", f"type = file\npath = {state_path}")
    cfg = write(tmp_path, "div.cfg", text)
    with pytest.warns(UserWarning, match="amplifying modes"):
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "numerical"


def test_simulate_csv_carries_the_amplifying_modes_warning(tmp_path):
    # gamma_pd = 0.4 amplifies coherences of an N=4 ladder; a level start has
    # none, so the run ends, and its CSV says what it warned on stderr
    text = OSCILLATOR_RUN_CFG.replace("N = 6", "N = 4").replace(
        "[integration]", "[dissipator]\ngamma_pd = 0.4\n\n[initial]\ntype = level\n"
        "index = 0\n\n[integration]").replace("path = out.csv", "path = out.csv\n"
                                                 "what = diagnostics")
    cfg = write(tmp_path, "amp.cfg", text)
    with pytest.warns(UserWarning, match="amplifying modes") as caught:
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    comments, header, _ = read_csv(tmp_path / "out.csv")
    assert [str(w.message) for w in caught] == [
        "assembled generator has amplifying modes (max Re lambda = 3.600e+00); "
        "check the sign of gamma_pd"]
    assert comments == [f"# warning: {caught[0].message}",
                        "# warning: truncation leak: top-level population reached "
                        "2.207e-02 > 1e-06"]
    assert header == ["t", "trace_dev", "min_eig", "top_pop"]


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


FIXED_POINT_SYSTEMS = {
    "eben32": "[system]\ntype = oscillator\nN = 32\nspacing = 1.0\nbath_T = 0.7\n",
    "gkls24": "[system]\ntype = oscillator\nN = 24\nspacing = 1.0\nbath_T = 1.3\n"
              "coupling_rule = constant\n[dissipator]\nkind = gkls\n",
    "explicit": CONFIG_SYSTEMS["explicit"][0],
    "tilted_ebe2": CONFIG_SYSTEMS["two_level"][0],
    "tilted_gkls": CONFIG_SYSTEMS["two_level"][0] + "[dissipator]\nkind = gkls\n",
}


@pytest.mark.parametrize("system", sorted(FIXED_POINT_SYSTEMS))
def test_fixed_point_state_file_is_the_per_entry_text(tmp_path, system):
    text = FIXED_POINT_SYSTEMS[system] + "[output]\npath = fp.csv\n"
    cfg = parse_config(text)
    report = fixed_point(cfg.spec, bath_T=cfg.bath_T)
    assert main(["fixed-point", "--config", write(tmp_path, "fp.cfg", text),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fp.state.txt").read_text() == entry_text(report.rho_stationary)


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
    spec = RhsSpec(SIGMA_Z / 2, "gkls", jumps=((SIGMA_X, 1.0),))
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
    calls = []
    real_rhs = sys.modules["ebloch.dissipators"].master_rhs
    counted_rhs = lambda *a: calls.append("master_rhs") or real_rhs(*a)
    # every binding of master_rhs in the package, so no module can reach the probe
    bindings = [m for name, m in list(sys.modules.items())
                if name.split(".")[0] == "ebloch" and getattr(m, "master_rhs", None) is real_rhs]
    assert sys.modules["ebloch.dissipators"] in bindings
    for module in bindings:
        monkeypatch.setattr(module, "master_rhs", counted_rhs)
    gp, gm = thermal_rates()
    text = TWO_LEVEL_CFG.format(gp=gp, gm=gm).replace("eps = 0, 0, 1", "eps = 0.6, 0, 0.8")
    text += f"\n[dissipator]\nkind = {kind}\n"
    expm = write(tmp_path, "expm.cfg", text)
    rk4 = write(tmp_path, "rk4.cfg", text.replace("record_every = 10", "record_every = 10\nmethod = rk4"))
    for sub, cfg in (("fixed-point", expm), ("simulate", expm), ("simulate", rk4)):
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
    from ebloch import cli

    cfg = write(tmp_path, "v.cfg", VERIFY_CFG.format(n=3))
    assert main(["verify-algebra", "--config", cfg, "--seed", "5", "--out", str(tmp_path / "a")]) == 0
    assert main(["verify-algebra", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert cli._parser() is cli._parser()
    comments, _, _ = read_csv(tmp_path / "a" / "verify_algebra.csv")
    assert "# seed=5" in comments
    comments, _, _ = read_csv(tmp_path / "b" / "verify_algebra.csv")
    assert "# seed=0" in comments
    with pytest.raises(SystemExit) as exc:
        main(["no-such-subcommand", "--config", cfg])
    assert exc.value.code == 2


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


def test_canonical_rejects_rk4(tmp_path, capsys):
    text = OSCILLATOR_RUN_CFG.replace("dt = 0.01", "dt = 0.01\nmethod = rk4")
    cfg = write(tmp_path, "rk4.cfg", text)
    assert main(["canonical", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "validation",
        "messages": ["[integration] method = rk4: canonical runs the exact flow only"]}
    assert not (tmp_path / "out.csv").exists()


# ----------------------------------------------------------------------- bench


def test_bench_checksums_match(tmp_path):
    gp, gm = thermal_rates()
    text = TWO_LEVEL_CFG.format(gp=gp, gm=gm) + "\n[bench]\napplications = 2000\nchunks = 4\n"
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


def test_bench_ladder_uses_diagonal_inputs(tmp_path):
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
    two_level = TWO_LEVEL_CFG.format(gp=gp, gm=gm) + "[bench]\napplications = 8\nchunks = 2\n"
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


# ------------------------------------------------------------------ cold start

# run in a fresh interpreter, since the test process has SciPy loaded already
COLD_START_SCRIPT = """\
import json, sys
from ebloch.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print("loaded:" + ",".join(m for m in ("scipy.linalg", "scipy.special") if m in sys.modules))
"""


def _scipy_loaded_after(tmp_path, calls):
    src = str(Path(ebloch.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argvs = [[sub, "--config", cfg, "--out", str(tmp_path)] for sub, cfg in calls]
    result = subprocess.run([sys.executable, "-c", COLD_START_SCRIPT, json.dumps(argvs)],
                            cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.splitlines()[-1].removeprefix("loaded:")
    return [m for m in loaded.split(",") if m]


def test_rk4_and_fixed_point_runs_leave_scipy_linalg_and_special_unloaded(tmp_path):
    text = OSCILLATOR_RUN_CFG.replace("dt = 0.01", "dt = 0.01\nmethod = rk4")
    cfg = write(tmp_path, "osc.cfg", text)
    canonical = write(tmp_path, "canonical.cfg", OSCILLATOR_RUN_CFG)
    assert _scipy_loaded_after(tmp_path, [("simulate", cfg), ("canonical", canonical),
                                          ("fixed-point", cfg)]) == []


def test_no_run_loads_scipy_linalg_or_special(tmp_path):
    # the exact flow is NumPy's own Pade expm, so expm runs load neither
    osc = OSCILLATOR_RUN_CFG.replace("dt = 0.01", "dt = 0.01\nmethod = expm")
    gp, gm = thermal_rates()
    tilted = (TWO_LEVEL_CFG.format(gp=gp, gm=gm).replace("eps = 0, 0, 1", "eps = 0.6, 0, 0.8")
              + "\n[dissipator]\nkind = gkls\n\n[bench]\napplications = 100\nchunks = 2\n")
    calls = [("simulate", write(tmp_path, "osc.cfg", osc)),
             ("simulate", write(tmp_path, "tilted.cfg", tilted)),
             ("simulate", write(tmp_path, "rk4.cfg", osc.replace("expm", "rk4"))),
             ("canonical", write(tmp_path, "canonical.cfg", OSCILLATOR_RUN_CFG)),
             ("fixed-point", str(tmp_path / "osc.cfg")),
             ("bench", str(tmp_path / "tilted.cfg")),
             ("verify-algebra", write(tmp_path, "v.cfg", VERIFY_CFG.format(n=20)))]
    assert _scipy_loaded_after(tmp_path, calls) == []
