import argparse
import csv
import dataclasses
import glob
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bousspec import cli, experiments
from bousspec.analysis import NormSpec
from bousspec.experiments import ConfigError, PRESETS, parse_config
from bousspec.jacobi import build_basis
from bousspec.timestep import GAMMA_ORDER3, STAGE_TOL
from golden import GOLDEN, RATIO_RTOL, match_golden


QUICK_RATIO = """
# quick refinement study
include-preset = table5
n = 16 32 64
"""


def test_all_presets_validate():
    for name, cfg in PRESETS.items():
        cfg.validate()
        assert cfg.name == name


def test_presets_cover_documented_names():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    for name in list(PRESETS) + list(experiments.DATA_PRESETS):
        assert name in readme, f"preset {name} missing from README"
    # the README's "Keys:" list: bullets "- `key`, `key`: meaning"
    keys_block = readme.split("\nKeys:\n", 1)[1].split("\n\n", 1)[0]
    documented = {key for line in keys_block.splitlines() if line.startswith("- `")
                  for key in re.findall(r"`([^`]+)`", line.split(":", 1)[0])}
    assert documented == set(experiments.CONFIG_KEYS) | {"include-preset"}


def _commands(parser, path=()):
    """The command paths that ``parser`` accepts, e.g. ("diagnose", "residual")."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {path}
    return {cmd for name, sub in subs[0].choices.items() for cmd in _commands(sub, path + (name,))}


def test_readme_cli_block_lists_every_command():
    # each "solver ..." line of the README's CLI block names a command the
    # parser accepts, and each command the parser accepts has a line
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = [tuple(re.match(r"solver((?: [a-z]+)+)", line).group(1).split())
                  for line in block.splitlines() if line.startswith("solver ")]
    assert sorted(documented) == sorted(_commands(cli.build_parser()))


def test_parse_config_overrides_preset():
    cfg = parse_config(QUICK_RATIO, name="quick")
    assert cfg.mode == "ratio_table"
    assert cfg.n_values == (16, 32, 64)
    assert cfg.theta2 == pytest.approx(2 / 3)
    # a step written once replaces the preset's step of the other kind
    cfg = parse_config(QUICK_RATIO + "k = 0.01")
    assert (cfg.k, cfg.k_per_h) == (0.01, None)


def test_parse_config_fraction_and_gamma_aliases():
    cfg = parse_config(
        "mode = error_table\ntheta2 = 9/11\ngamma = midpoint order3\n"
        "t-end = 2.0\nn = 64\ninitial-data = bs-solitary\nnorm = H2xH1\n"
    )
    assert cfg.theta2 == pytest.approx(9 / 11)
    assert cfg.gammas[0] == 0.5
    assert cfg.gammas[1] == pytest.approx(0.7886751345948129)
    assert cfg.norms == (NormSpec(2, 1),)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("bogus line", "key = value"),
        ("unknown-key = 3", "unknown key"),
        # the output directory is --output's alone
        ("include-preset = table5\noutput-dir = elsewhere", "line 2: unknown key 'output-dir'"),
        ("include-preset = nope", "unknown preset"),
        # include-preset is the base every other key overrides, so it comes first
        ("n = 32\nk-list = 0.5 0.25\ninclude-preset = table2",
         "line 3: include-preset must be the first key"),
        ("include-preset = table1\nn = 32\ninclude-preset = table2",
         "line 3: include-preset must be the first key"),
        # a key is written once, and the step as k or as k-per-h, not both
        ("include-preset = table5\nn = 16 32 64\nn = 8 16 32",
         "line 3: 'n' conflicts with 'n' on line 2"),
        ("include-preset = table5\nn = 16 32 64\nk-per-h = 0.1\nk = 0.01",
         "line 4: 'k' conflicts with 'k-per-h' on line 3"),
        ("mode = snapshot\nk = 0.01\nn = 16\nk-per-h = 0.1",
         "line 4: 'k-per-h' conflicts with 'k' on line 2"),
        ("mode = ratio_table\nn = 16 32\nk = 0.1", "three N values"),
        ("mode = ratio_table\nn = 16 32 48\nk = 0.1", "doubling chain"),
        ("mode = snapshot\nn = 16\ninitial-data = tent\ntheta2 = 2/3", "exactly one"),
        ("norm = H3xH1", "norm must look like"),
        # norm labels are whitespace separated, so a label holds no spaces
        ("norm = H2 x H1", "norm must look like 'H2xH1', got 'H2'"),
        ("include-preset = table5\nn = 8 16 32\nnorm =", "norm needs one or more distinct values"),
        # every malformed value fails at parse time, before any basis is built
        (QUICK_RATIO + "t-end = inf", "t_end must be finite"),
        (QUICK_RATIO + "t-end = 1e308", "t_end / k = inf is not finite"),
        ("include-preset = bore\nn = 1000000000000", r"n values must lie in \[2, 4096\]"),
        (QUICK_RATIO + "k = inf", "k must be finite"),
        (QUICK_RATIO + "gamma = 1e-9", "gamma values must be >= 0.25"),
        # past gamma = 1 a stage time leaves the step
        (QUICK_RATIO + "gamma = 1.5", r"gamma values must be <= 1.0 \(stage times inside the step\)"),
        (QUICK_RATIO + "gamma = 1e30", r"gamma values must be <= 1.0"),
        (QUICK_RATIO + "b-neq-d = maybe", "bad value for 'b-neq-d'"),
        (QUICK_RATIO + "theta2 = 1/0", "bad value for 'theta2': float division by zero"),
        (QUICK_RATIO + "gamma = nan", "gammas must be finite"),
        ("include-preset = table1\nx0 = nan", "x0 must be finite"),
        ("include-preset = table2\nc-s = nan", "c_s must be finite"),
        ("include-preset = table2\nrho = inf", "rho must be finite"),
        ("include-preset = bore\namplitude = nan", "amplitude must be finite"),
        ("include-preset = bore\nkappa = nan", "kappa must be finite"),
        (QUICK_RATIO + "left = -inf", "interval must be finite"),
        ("include-preset = table2\nk-list = 0.5", "k-list needs at least two entries"),
        ("include-preset = table2\nk = 0.01",
         "k applies to ratio tables, snapshot runs only, got mode 'error_table'"),
        ("include-preset = table1\nn = 32\nk-list = 0.5 0.25\nsnapshot-times = 1",
         "snapshot-times applies to snapshot runs only"),
        # an error table has one column per gamma and one row per k
        ("include-preset = table2\ngamma = 0.5 midpoint", "gamma values must be distinct; 0.5 is repeated"),
        ("include-preset = table2\nk-list = 0.5 0.25 0.5", "k-list values must be distinct; 0.5 is repeated"),
        # ... and values that differ but print as one label
        ("include-preset = table2\nn = 16\nk-list = 0.5 0.25\ngamma = 0.5 0.50000000001",
         "gamma values 0.5 and 0.50000000001 print as the same table label"),
        ("include-preset = table2\nk-list = 0.5 0.25 0.2500000000001",
         "k-list values 0.25 and 0.2500000000001 print as the same table label"),
        # error tables and snapshot runs read one N
        ("include-preset = table1\nn = 32 64", r"error_table runs use one N; got n = \(32, 64\)"),
        ("include-preset = bore\nn = 16 32", r"snapshot runs use one N; got n = \(16, 32\)"),
        (QUICK_RATIO + "t-end = -1", "t_end must be positive"),
        (QUICK_RATIO + "left = 1", r"need left < right with a finite width, got \(1.0, 1.0\)"),
        ("mode = snapshot\nn = 16\nk = 0.1\ninitial-data = tent", "'tent' needs theta2"),
        # a k-list written outside error tables is refused even when it is the default sweep
        ("include-preset = table5\nn = 8 16 32\nk-list = 0.125 0.0625 0.03125",
         "k-list applies to error tables only, got mode 'ratio_table'"),
        # the bore and nonsmooth data bring their own boundary values
        ("include-preset = bore\nn = 16\nt-end = 0.8\nsnapshot-times = 0.8\nboundary = homogeneous",
         "boundary applies to bs-solitary, bbm-traveling, bneqd-solitary only, "
         "got initial-data 'bore'"),
        ("include-preset = table6\nn = 8 16 32\nboundary = exact",
         "boundary applies to bs-solitary, bbm-traveling, bneqd-solitary only, "
         "got initial-data 'tent'"),
    ],
)
def test_parse_config_rejects(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


@pytest.mark.parametrize("text", [QUICK_RATIO + "t-end = inf", "include-preset = bore\nn = 1000000000000"])
def test_cli_malformed_config_exits_2_without_traceback(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("make, reason", [
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes(b"n = 16\n\xd0\n"), "can't decode byte 0xd0"),
])
def test_cli_unreadable_config_exits_2_without_traceback(tmp_path, capsys, make, reason):
    # the path exists but cannot be read as a text config
    target = tmp_path / "run.cfg"
    make(target)
    assert cli.main(["run", str(target)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {str(target)!r}: ")
    assert reason in err and "Traceback" not in err


def test_cli_uncreatable_output_exits_2_before_any_solve(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "build_basis", lambda *args: pytest.fail("a basis was built"))
    cfg = tmp_path / "quick.cfg"
    cfg.write_text(QUICK_RATIO)
    (tmp_path / "plain").write_text("")
    out = str(tmp_path / "plain" / "out")
    assert cli.main(["run", str(cfg), "--output", out]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory {out!r}")
    assert "Traceback" not in err


SMALL_TABLE1 = "include-preset = table1\nn = 32\nk-list = 0.5 0.25\n"
SMALL_BORE = "include-preset = bore\nn = 16\nt-end = 0.8\nsnapshot-times = 0.8\n"


@pytest.mark.parametrize("text, blocker, make", [
    (SMALL_TABLE1, "errors.csv", lambda path: path.mkdir()),       # open() of a directory
    (SMALL_BORE, "snapshots", lambda path: path.write_text("")),   # makedirs over a file
])
def test_cli_unwritable_artifact_exits_2_naming_it(tmp_path, capsys, text, blocker, make):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    out.mkdir()
    make(out / blocker)
    assert cli.main(["run", str(cfg), "--output", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {str(out / blocker)!r}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    # keys that the data does not read, written defaults included
    (SMALL_TABLE1 + "b-neq-d = true",
     "b-neq-d applies to bore, piecewise-quadratic, tent only, got initial-data 'bs-solitary'"),
    (SMALL_TABLE1 + "b-neq-d = false", "b-neq-d applies to bore, piecewise-quadratic, tent only"),
    (SMALL_TABLE1 + "amplitude = 7",
     "amplitude applies to bneqd-solitary, bore only, got initial-data 'bs-solitary'"),
    (SMALL_TABLE1 + "kappa = 3", "kappa applies to bore only, got initial-data 'bs-solitary'"),
    (SMALL_TABLE1 + "rho = 9", "rho applies to bbm-traveling only, got initial-data 'bs-solitary'"),
    (SMALL_BORE + "x0 = 5",
     "x0 applies to bs-solitary, bbm-traveling, bneqd-solitary only, got initial-data 'bore'"),
    ("include-preset = table6\nn = 8 16 32\nx0 = 0.5",
     "x0 applies to bs-solitary, bbm-traveling, bneqd-solitary only, got initial-data 'tent'"),
    ("include-preset = table2\nn = 32\nk-list = 0.5 0.25\ntheta2 = 0.8",
     "theta2 applies to bs-solitary, bore, piecewise-quadratic, tent only, "
     "got initial-data 'bbm-traveling'"),
    # the b != d solitary wave exists at theta2 = 7/9 only
    ("include-preset = table3\nn = 32\nk-list = 0.5 0.25\ntheta2 = 0.85",
     "theta2 applies to bs-solitary, bore, piecewise-quadratic, tent only, "
     "got initial-data 'bneqd-solitary'"),
    # keys that the mode does not read
    (SMALL_BORE + "norm = H2xH2", "norm applies to error tables, ratio tables only, got mode 'snapshot'"),
    (SMALL_BORE + "norm = L2xL2", "norm applies to error tables, ratio tables only, got mode 'snapshot'"),
    (SMALL_TABLE1 + "snapshot-times = 1",
     "snapshot-times applies to snapshot runs only, got mode 'error_table'"),
    (SMALL_TABLE1 + "k-per-h = 0.1",
     "k-per-h applies to ratio tables, snapshot runs only, got mode 'error_table'"),
    # an error table measures one norm, and a ratio table each norm once
    (SMALL_TABLE1 + "norm = H2xH1 H1xH1", "error_table runs use one norm; got norm = H2xH1 H1xH1"),
    ("include-preset = table5\nn = 8 16 32\nnorm = L2xL2 H1xH1 l2xl2",
     "norm needs one or more distinct values; got norm = L2xL2 H1xH1 L2xL2"),
    # ratio tables and snapshot runs solve with one gamma
    ("include-preset = table5\nn = 8 16 32\ngamma = order3 midpoint",
     f"ratio_table runs use one gamma; got gamma = ({GAMMA_ORDER3!r}, 0.5)"),
    (SMALL_BORE + "gamma = midpoint order3",
     f"snapshot runs use one gamma; got gamma = (0.5, {GAMMA_ORDER3!r})"),
    # snapshot times that would give one file: one step, or steps printed alike
    ("include-preset = bore\nn = 16\nk = 0.1\nt-end = 0.8\nsnapshot-times = 0.4 0.4",
     "snapshot times 0.4 and 0.4 both give the snapshot t0.4 at time step 0.1"),
    ("include-preset = bore\nn = 16\nk = 0.1\nt-end = 0.8\nsnapshot-times = 0.41 0.42",
     "snapshot times 0.41 and 0.42 both give the snapshot t0.4 at time step 0.1"),
    ("include-preset = bore\nn = 16\nk = 1e-7\nt-end = 1\nsnapshot-times = 0.5 0.5000001",
     "snapshot times 0.5 and 0.5000001 both give the snapshot t0.5 at time step 1e-07"),
])
def test_cli_run_refuses_what_it_would_ignore_before_any_solve(tmp_path, capsys, monkeypatch,
                                                               text, message):
    monkeypatch.setattr(experiments, "build_basis", lambda *args: pytest.fail("a basis was built"))
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(text)
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    # a preset's value of a field that the new mode or data does not read is dropped
    "include-preset = table6\nmode = snapshot\nn = 32\nt-end = 0.1\n",
    SMALL_TABLE1 + "initial-data = bbm-traveling\n",
    "include-preset = table5\nmode = error_table\ninitial-data = bs-solitary\ntheta2 = 9/11\nn = 32\n",
])
def test_cli_run_drops_preset_values_that_the_run_does_not_read(tmp_path, text):
    cfg = tmp_path / "switch.cfg"
    cfg.write_text(text)
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "out")]) == cli.EXIT_OK
    # each field that the run does not read is echoed at its default
    defaults = json.loads(json.dumps(dataclasses.asdict(experiments.ExperimentConfig())))
    parsed, record = parse_config(text), _run_record(tmp_path / "out")["config"]
    unread = [f.name for f in dataclasses.fields(parsed) if not experiments._reads(parsed, f)]
    assert unread and all(record[name] == defaults[name] for name in unread)


@pytest.mark.parametrize("text, message", [
    # data that the closed forms refuse
    ("include-preset = table2\nrho = -1\n", "need rho > 0 and c_s != 0"),
    (SMALL_TABLE1 + "theta2 = 0.7\n", "theta^2 must lie in (7/9, 1), got 0.7"),
    # the traveling wave's derivatives overflow, and its residual is NaN
    ("include-preset = table2\nn = 16\nk-list = 0.5 0.25\nrho = 1e150\n",
     "closed form 'bbm-traveling' fails the residual gate: nan"),
    # data whose parameters overflow a float
    ("include-preset = table2\nn = 32\nrho = 1e308\n",
     "initial data 'bbm-traveling' overflow at rho = 1e+308, c_s = 1.0"),
    ("include-preset = table2\nn = 32\nc-s = 1e300\n",
     "initial data 'bbm-traveling' overflow at rho = 2.0, c_s = 1e+300"),
    ("include-preset = bore\nn = 32\namplitude = 1e200\n",
     "initial data 'bore' overflow at amplitude = 1e+200"),
])
def test_cli_run_refuses_bad_data_before_writing_anything(tmp_path, capsys, monkeypatch,
                                                         text, message):
    monkeypatch.setattr(experiments, "build_basis", lambda *args: pytest.fail("a basis was built"))
    cfg = tmp_path / "data.cfg"
    cfg.write_text(text)
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


# a changed value for each field that only some initial data read
DATA_FIELD_CHANGES = {"theta2": 0.85, "b_neq_d": True, "amplitude": 0.3, "kappa": 1.0,
                      "rho": 1.5, "c_s": 1.2, "x0": 0.25, "boundary": "homogeneous"}


def _resolved(cfg):
    """What the run reads of the data: coefficients, initial data at sample
    points and boundary data at t = 0 and 0.5, or the resolver's refusal."""
    try:
        problem = experiments._resolve_problem(cfg)
    except ValueError as exc:
        return [str(exc)]
    x = np.linspace(*cfg.interval, 9)
    return [problem.params, problem.eta_init(x), problem.u_init(x),
            problem.bdata.at(0.0), problem.bdata.at(0.5)]


@pytest.mark.parametrize("data", experiments.DATA_PRESETS)
def test_reader_table_matches_the_resolved_problem(data):
    # a field marked unread for the data leaves the resolved problem as it
    # is; one marked read changes it
    readers = {f.name: f.metadata["readers"] for f in dataclasses.fields(experiments.ExperimentConfig)
               if set(f.metadata.get("readers", ())) & set(experiments.DATA_PRESETS)}
    assert set(readers) == set(DATA_FIELD_CHANGES)
    base = experiments.ExperimentConfig(
        initial_data=data, interval=(-14.0, 50.0) if data == "bore" else (-1.0, 1.0),
        theta2=None if data in ("bbm-traveling", "bneqd-solitary") else 9 / 11)
    expected = _resolved(base)
    for name, value in DATA_FIELD_CHANGES.items():
        got = _resolved(dataclasses.replace(base, **{name: value}))
        same = len(got) == len(expected) and all(map(np.array_equal, got, expected))
        assert same == (data not in readers[name]), (name, got)


def test_workload_configs_and_readme_example_parse():
    root = os.path.join(os.path.dirname(__file__), "..")
    paths = sorted(glob.glob(os.path.join(root, "perfbench", "workloads", "*", "*.cfg")))
    assert len(paths) >= 7
    texts = [open(path).read() for path in paths]
    readme = open(os.path.join(root, "README.md")).read()
    texts.append(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    for text in texts:
        parse_config(text)


def test_step_for_mesh_multiple():
    cfg = PRESETS["table5"]
    assert cfg.step_for(16) == pytest.approx(0.1 * (2.0 / 16))
    assert PRESETS["table4"].step_for(1024) == 6.25e-4


def test_cli_run_writes_artifacts(tmp_path):
    cfg_file = tmp_path / "quick.cfg"
    cfg_file.write_text(QUICK_RATIO)
    out = tmp_path / "out"
    rc = cli.main(["run", str(cfg_file), "--output", str(out)])
    assert rc == 0
    assert (out / "ratios.csv").exists()
    assert (out / "table.md").exists()
    assert (out / "run.json").exists() and not (out / "run.meta").exists()
    header, row = (out / "ratios.csv").read_text().splitlines()
    assert header == "n,E_H1xH1,log2_E_H1xH1"
    assert row.startswith("16,2.63624")


def test_cli_run_writes_to_results_under_the_working_directory(tmp_path, monkeypatch):
    # without --output a run writes to results/<name>; the environment
    # variable that once moved that root is ignored
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BOUSSPEC_OUTPUT_ROOT", str(tmp_path / "elsewhere"))
    (tmp_path / "quick.cfg").write_text(QUICK_RATIO)
    assert cli.main(["run", "quick.cfg"]) == 0
    assert sorted(os.listdir(tmp_path)) == ["quick.cfg", "results"]
    written = sorted(os.listdir(tmp_path / "results" / "quick"))
    assert written == ["ratios.csv", "run.json", "table.md"]


def test_cli_ratio_table_writes_one_column_group_per_norm(tmp_path):
    cfg_file = tmp_path / "two.cfg"
    cfg_file.write_text(QUICK_RATIO + "norm = L2xL2 H1xH1\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_file), "--output", str(out)]) == 0
    header, row = (out / "ratios.csv").read_text().splitlines()
    assert header == "n,E_L2xL2,log2_E_L2xL2,E_H1xH1,log2_E_H1xH1"
    assert row.startswith("16,5.34628") and row.split(",")[3].startswith("2.63624")
    assert "| N | E_N (L2xL2) | log2 | E_N (H1xH1) | log2 |" in (out / "table.md").read_text()
    assert _run_record(out)["config"]["norms"] == [{"eta_order": 0, "u_order": 0},
                                                   {"eta_order": 1, "u_order": 1}]


def test_cli_error_table_artifact_layout(tmp_path):
    # 0.5 -> 0.25 halves and has a rate; 0.25 -> 0.2 does not and leaves
    # its rate cells empty, as does the first markdown row
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text("include-preset = table2\nn = 32\nk-list = 0.5 0.25 0.2\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_file), "--output", str(out)]) == 0
    errors = (out / "errors.csv").read_text().splitlines()
    assert errors[0] == "k,error_gamma_0.5,error_gamma_0.7886751346"
    assert [line.split(",")[0] for line in errors[1:]] == [
        "5.00000000000E-01", "2.50000000000E-01", "2.00000000000E-01"]
    assert all(len(line.split(",")) == 3 for line in errors)
    rates = (out / "rates.csv").read_text().splitlines()
    assert rates[0] == "k,rate_gamma_0.5,rate_gamma_0.7886751346"
    assert len(rates) == 3 and re.fullmatch(r"2\.50000000000E-01,-?\d\.\d{4},-?\d\.\d{4}", rates[1])
    assert rates[2] == "2.00000000000E-01,,"
    md = (out / "table.md").read_text().splitlines()
    assert md[:4] == ["# sweep: H2xH2 errors at T=2", "",
                      "| k | error (gamma=0.5) | rate | error (gamma=0.788675) | rate |",
                      "|---|---|---|---|---|"]
    cells = [line.split("|")[1:-1] for line in md[4:]]
    assert [c[0].strip() for c in cells] == ["0.5", "0.25", "0.2"]
    halving = tuple(f" {float(r):.2f} " for r in rates[1].split(",")[1:])
    assert [(c[2], c[4]) for c in cells] == [("  ", "  "), halving, ("  ", "  ")]


def test_cli_rerun_reproduces_identical_bytes(tmp_path):
    cfg_file = tmp_path / "quick.cfg"
    cfg_file.write_text(QUICK_RATIO)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(["run", str(cfg_file), "--output", str(out)]) == 0
        outs.append((out / "ratios.csv").read_bytes())
    assert outs[0] == outs[1]


def _run_record(out):
    with open(out / "run.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("text, t_end, solves, workers", [
    (QUICK_RATIO, 1.0, [(n, 0.2 / n, GAMMA_ORDER3) for n in (16, 32, 64)],
     min(experiments.available_cpus(), 3)),
    ("include-preset = table2\nn = 32\nk-list = 0.5 0.25\n", 2.0,
     [(32, k, g) for g in (0.5, GAMMA_ORDER3) for k in (0.5, 0.25)], 1),
])
def test_cli_run_records_integration_stats(tmp_path, text, t_end, solves, workers):
    # one run.json record per (N, k, gamma) solve, in solve order, and the
    # number of processes that ran them: one per CPU, at most one per N
    cfg_file = tmp_path / "quick.cfg"
    cfg_file.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_file), "--output", str(out)]) == 0
    meta = _run_record(out)
    assert meta["numpy"] == np.__version__
    assert meta["workers"] == workers
    records = meta["solves"]
    assert [(r["n"], r["k"], r["gamma"]) for r in records] == pytest.approx(solves)
    for rec in records:
        assert rec["steps"] == round(t_end / rec["k"])
        assert 2 * rec["steps"] <= rec["rhs_evals"]
        assert 1 <= rec["max_stage_iters"] <= rec["rhs_evals"]
        assert 0.0 <= rec["max_stage_residual"] <= STAGE_TOL


@pytest.mark.parametrize("text, window", [
    # the smoothed step's tanh tail on [-14, 50]: the window of
    # test_bore_data_shape_and_compatibility
    ("include-preset = bore\nn = 16\nk = 0.1\nt-end = 0.2\nsnapshot-times = 0.2\n",
     (1e-10, 1e-8)),
    # exact endpoint traces agree with the closed-form initial data
    ("include-preset = table2\nn = 32\nk-list = 0.5 0.25\n", None),
])
def test_cli_run_records_boundary_mismatch(tmp_path, text, window):
    cfg_file = tmp_path / "quick.cfg"
    cfg_file.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_file), "--output", str(out)]) == 0
    value = _run_record(out)["boundary_mismatch"]
    assert isinstance(value, float)
    if window is None:
        assert value == 0.0
    else:
        assert window[0] < value <= window[1]


def test_cli_run_warns_of_a_bore_boundary_mismatch(tmp_path):
    # kappa = 0.1 widens the smoothed step until its tail reaches the ends
    cfg_file = tmp_path / "wide.cfg"
    cfg_file.write_text("include-preset = bore\nn = 16\nk = 0.1\nt-end = 0.2\n"
                        "snapshot-times = 0.2\nkappa = 0.1\n")
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="disagree by 1.43e-02 at the endpoints"):
        assert cli.main(["run", str(cfg_file), "--output", str(out)]) == 0
    assert repr(_run_record(out)["boundary_mismatch"]).startswith("0.0143")


def test_run_json_round_trips_k_gamma_and_mismatch_exactly(tmp_path):
    # a 16-digit k, the order-3 gamma and the bore's tanh-tail mismatch
    # come back from JSON as the very floats of the run
    k = 0.1 / 3
    text = f"include-preset = bore\nn = 16\nk = {k!r}\nt-end = 0.2\nsnapshot-times = 0.2\n"
    cfg_file = tmp_path / "bore.cfg"
    cfg_file.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_file), "--output", str(out)]) == 0
    cfg = parse_config(text)
    meta = _run_record(out)
    [solve] = meta["solves"]
    assert solve["k"] == k and solve["steps"] == 6 and solve["gamma"] == GAMMA_ORDER3
    assert meta["boundary_mismatch"] == experiments._resolve_problem(cfg).boundary_mismatch != 0.0
    assert meta["config"]["gammas"] == [GAMMA_ORDER3]


def test_readme_lists_the_run_json_keys(tmp_path):
    # the README's "Run record keys:" list, and its `solves` bullet's keys
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    block = readme.split("\nRun record keys:\n", 1)[1].split("\n\n", 1)[0]
    bullets = {line[3:].split("`", 1)[0]: line for line in block.splitlines()
               if line.startswith("- `")}
    cfg_file = tmp_path / "quick.cfg"
    cfg_file.write_text(QUICK_RATIO)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_file), "--output", str(out)]) == 0
    meta = _run_record(out)
    assert set(bullets) == set(meta)
    solve_keys = set(re.findall(r"`([^`]+)`", bullets["solves"].split(":", 1)[1]))
    assert all(set(solve) == solve_keys for solve in meta["solves"])
    assert set(meta["config"]) == {f.name for f in dataclasses.fields(experiments.ExperimentConfig)}


NO_SCIPY_RUN = """
import sys
from bousspec import cli
rc = cli.main(["run", sys.argv[1], "--output", sys.argv[2]])
print(rc, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_run_path_imports_no_scipy(tmp_path):
    # a fresh interpreter: importing the CLI and running an experiment must
    # not load scipy, at import time or lazily on the run path
    cfg_file = tmp_path / "small.cfg"
    cfg_file.write_text("include-preset = table5\nn = 8 16 32\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, str(cfg_file), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


SOLVER_RUN = """
import sys
from bousspec import cli
sys.exit(cli.main(["run", sys.argv[1], "--output", sys.argv[2]]))
"""


def _run_solver(cfg_file, out, cpus=None, **extra_env):
    """``solver run`` in a fresh interpreter, on ``cpus`` (a CPU set) if
    given, with ``extra_env`` added to the environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               **extra_env)
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    return subprocess.run([sys.executable, "-c", SOLVER_RUN, str(cfg_file), str(out)],
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=pin)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.parametrize("preset", ["table5", "table5b"])
def test_ratio_table_bytes_do_not_depend_on_worker_count(tmp_path, preset):
    # the default run spreads the N values over one process per CPU; the
    # same run pinned to one CPU solves them all in process.  Both runs get
    # one BLAS thread: pinning alone would also change the BLAS thread
    # count, and the operators at N = 128 differ in their last bits between
    # 1 and 2 OpenBLAS threads
    cfg_file = tmp_path / "chain.cfg"
    cfg_file.write_text(f"include-preset = {preset}\nn = 16 32 64 128\n")
    one_cpu = {min(os.sched_getaffinity(0))}
    outs = {}
    for label, cpus in (("default", None), ("pinned", one_cpu)):
        done = _run_solver(cfg_file, tmp_path / label, cpus,
                           OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        assert done.returncode == 0, done.stderr
        meta = _run_record(tmp_path / label)
        outs[label] = ((tmp_path / label / "ratios.csv").read_bytes(),
                       (tmp_path / label / "table.md").read_bytes(),
                       meta["solves"], meta["workers"])
    assert outs["pinned"][3] == 1
    assert outs["default"][3] == min(len(os.sched_getaffinity(0)), 4)
    assert outs["default"][:3] == outs["pinned"][:3]
    assert len(outs["default"][2]) == 4
    # the rows N = 16 and 32, each cell against golden.py's
    golden = GOLDEN["ratios.csv"][preset]
    header, *rows = outs["pinned"][0].decode().splitlines()
    columns = list(zip(*(row.split(",") for row in rows)))
    assert header.split(",") == list(golden)
    assert list(map(int, columns[0])) == golden["n"]
    for label, cells in zip(header.split(",")[1:], columns[1:]):
        match_golden(f"{preset} ratios.csv {label}", list(map(float, cells)), golden[label],
                     RATIO_RTOL)


def test_cli_ratio_divergence_reports_the_serial_first_failure(tmp_path, capsys):
    # k = 8h diverges at N = 16 (k = 1), which a worker solves while this
    # process solves N = 64; the message is the one a serial run gives
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("include-preset = table5\nn = 16 32 64\nk-per-h = 8\n")
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "out")]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: N=16: stage iteration ")
    assert f"at step 0 of the run gamma={GAMMA_ORDER3:.10g}, k=1; reduce the time step" in err
    assert not (tmp_path / "out").exists()   # the run made it, and removed it again
    with pytest.raises(ChildProcessError):   # the worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_cli_failed_run_keeps_an_output_directory_that_existed(tmp_path):
    # the k = 8h run exits 3 after the output directory is made; one that
    # was there before the run, even empty, stays
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("include-preset = table5\nn = 16 32 64\nk-per-h = 8\n")
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(["run", str(cfg), "--output", str(out)]) == cli.EXIT_NUMERICAL
    assert out.is_dir()


def test_cli_dead_ratio_worker_exits_3(tmp_path, capsys, monkeypatch):
    # a worker killed before it sends its results is a numerical failure,
    # reported in one line
    here, solve_once = os.getpid(), experiments.solve_once

    def killed_in_a_worker(*args, **kwargs):
        if os.getpid() != here:
            os.kill(os.getpid(), signal.SIGKILL)
        return solve_once(*args, **kwargs)

    monkeypatch.setattr(experiments, "available_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "solve_once", killed_in_a_worker)
    cfg = tmp_path / "small.cfg"
    cfg.write_text("include-preset = table5\nn = 8 16 32\n")
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "out")]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert re.fullmatch(r"numerical failure: worker process \d+ was killed by signal SIGKILL "
                        r"before sending its results\n", err)
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_snapshot_run(tmp_path):
    cfg_file = tmp_path / "snap.cfg"
    cfg_file.write_text(
        "mode = snapshot\ntheta2 = 2/3\nleft = -14\nright = 50\nn = 64\n"
        "k-per-h = 0.1\nt-end = 1.0\ninitial-data = bore\namplitude = 0.25\n"
        "kappa = 0.7\nsnapshot-times = 0.5 1.0\ngamma = midpoint\n"
    )
    out = tmp_path / "snap"
    assert cli.main(["run", str(cfg_file), "--output", str(out)]) == 0
    files = sorted(os.listdir(out / "snapshots"))
    assert files == ["t0.5.csv", "t1.csv"]
    data = np.loadtxt(out / "snapshots" / "t1.csv", delimiter=",", skiprows=1)
    assert data.shape[1] == 3
    assert abs(data[0, 1] - 0.25) < 1e-6  # left boundary pinned to eta0


def test_cli_snapshot_run_at_n_2048(tmp_path):
    # one step of the bore at N = 2048: the barycentric product overflowed
    # there and the run exited 2 with "matrix has non-finite entries"
    cfg_file = tmp_path / "wide.cfg"
    cfg_file.write_text("include-preset = bore\nn = 2048\nt-end = 0.001\nk = 0.001\n"
                        "snapshot-times = 0.001\n")
    done = _run_solver(cfg_file, tmp_path / "out")
    assert done.returncode == cli.EXIT_OK, done.stderr
    data = np.loadtxt(tmp_path / "out" / "snapshots" / "t0.001.csv", delimiter=",", skiprows=1)
    assert data.shape == (4 * 2048 + 1, 3)
    assert np.all(np.isfinite(data))
    assert abs(data[0, 1] - 0.25) < 1e-6


def test_cli_error_exit_codes(tmp_path, capsys):
    assert cli.main(["run", "does-not-exist"]) == cli.EXIT_CONFIG
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode = ratio_table\nn = 16\nk = 0.1\n")
    assert cli.main(["run", str(bad), "--output", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert "three N values" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # run is the one command that runs a config
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "table5"])
    assert exc.value.code == cli.EXIT_CONFIG


def test_cli_stage_divergence_names_the_run_and_exits_3(tmp_path, capsys):
    # the error table integrates its four runs together; the order-3 member
    # at k = 2 diverges in its first step and the error names that run
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("include-preset = table2\nn = 32\nk-list = 2.0 0.25\n")
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "out")]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert f"at step 0 of the run gamma={GAMMA_ORDER3:.10g}, k=2;" in err


def test_cli_overflowing_closed_form_exits_2(tmp_path, capsys):
    # rho = 1e308 passes validation but the traveling wave's amplitude
    # overflows: the data are refused, by run and by the residual diagnostic
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("include-preset = table2\nn = 32\nrho = 1e308\n")
    message = "config error: initial data 'bbm-traveling' overflow at rho = 1e+308, c_s = 1.0\n"
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == message
    assert cli.main(["diagnose", "residual", str(cfg)]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "out").exists()


def test_cli_zero_error_names_the_column_and_exits_3(tmp_path):
    # the solitary wave centred at 1e5 vanishes on the interval, so both
    # errors are exactly 0 and the table has no ratio; cosh overflows there,
    # where sech^2 is exactly 0, and the user sees only the exit-3 message
    cfg = tmp_path / "far.cfg"
    cfg.write_text("include-preset = table1\nn = 32\nk-list = 0.5 0.25\nx0 = 1e5\n")
    done = _run_solver(cfg, tmp_path / "out")
    assert done.returncode == cli.EXIT_NUMERICAL
    assert "RuntimeWarning" not in done.stderr
    assert done.stderr.startswith("numerical failure: gamma=0.5: the error at k=0.5 is exactly 0")


def test_cli_singular_mass_exits_3(tmp_path, monkeypatch, capsys):
    from bousspec import semidiscrete

    cfg = tmp_path / "small.cfg"
    cfg.write_text("include-preset = table5\nn = 8 16 32\n")
    top_rows = semidiscrete._top_rows

    def singular(*args):
        # zero weights and rows of B: every folded mass block is exactly 0
        w, g, b, b2 = top_rows(*args)
        return 0.0 * w, g, 0.0 * b, b2

    monkeypatch.setattr(semidiscrete, "_top_rows", singular)
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "a")]) == cli.EXIT_NUMERICAL
    # the serial loop's first failure: N = 8
    assert capsys.readouterr().err == "numerical failure: N=8: matrix is singular\n"
    # an error table solves in this process
    cfg.write_text("include-preset = table1\nn = 8\nk-list = 0.5 0.25\n")
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "b")]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: N=8: matrix is singular\n"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_cli_non_finite_field_names_n_and_exits_3(tmp_path, monkeypatch, capsys):
    from bousspec import semidiscrete

    cfg = tmp_path / "huge.cfg"
    cfg.write_text("include-preset = table2\nn = 16\nk-list = 0.5 0.25\n")
    initial_state = semidiscrete.initial_state
    for scale, message in [
        # fluxes such as u + eta*u overflow in the first evaluation of the field
        (lambda: 1e200, "semidiscrete vector field produced non-finite values at t="),
        # any ArithmeticError raised inside the solve: here an OverflowError
        (lambda: math.exp(1e3), "math range error"),
    ]:
        monkeypatch.setattr(semidiscrete, "initial_state",
                            lambda *args: scale() * initial_state(*args))
        assert cli.main(["run", str(cfg), "--output", str(tmp_path / "a")]) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith(f"numerical failure: N=16: {message}")


def test_cli_diagnose_quadrature(capsys):
    assert cli.main(["diagnose", "quadrature", "--mu", "0", "--N", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "node,weight"
    nodes = [float(line.split(",")[0]) for line in out[1:]]
    weights = [float(line.split(",")[1]) for line in out[1:]]
    assert nodes == [-1.0, 0.0, 1.0]
    assert weights == pytest.approx([1 / 3, 4 / 3, 1 / 3])


def test_cli_diagnose_quadrature_refuses_n_past_n_max(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_basis", lambda *args: pytest.fail("a basis was built"))
    assert cli.main(["diagnose", "quadrature", "--N", "4097"]) == cli.EXIT_CONFIG
    assert "--N must lie in [2, 4096], got 4097" in capsys.readouterr().err


def test_cli_diagnose_quadrature_matrices(capsys):
    n = 6
    assert cli.main(["diagnose", "quadrature", "--mu", "0.25", "--N", str(n), "--matrices"]) == 0
    out = capsys.readouterr().out.split("\n# ")
    assert len(out[0].splitlines()) == n + 2             # header and N + 1 nodes
    basis = build_basis(0.25, n)
    blocks = {}
    for block in out[1:]:
        label, *rows = block.strip().splitlines()
        blocks[label] = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert list(blocks) == ["d1", "d2", "psi"]
    assert blocks["d1"].shape == blocks["d2"].shape == (n + 1, n + 1)
    assert blocks["psi"].shape == (n + 1, n - 1)
    for label, mat in blocks.items():
        assert mat == pytest.approx(getattr(basis, label), rel=1e-14, abs=1e-14)


def test_cli_diagnose_dispersion(capsys):
    assert cli.main(["diagnose", "dispersion", "--gamma", "0.5"]) == 0
    out = capsys.readouterr().out
    slope = float(out.rsplit("=", 1)[1])
    assert slope == pytest.approx(3.0, abs=0.1)


@pytest.mark.parametrize("gamma, code", [
    ("nan", cli.EXIT_CONFIG), ("inf", cli.EXIT_CONFIG), ("0.1", cli.EXIT_CONFIG),
    ("-1", cli.EXIT_CONFIG), ("1e300", cli.EXIT_CONFIG), ("1.5", cli.EXIT_CONFIG),
    ("0.25", cli.EXIT_OK), ("1", cli.EXIT_OK),
])
def test_cli_diagnose_dispersion_checks_gamma_like_a_config(capsys, gamma, code):
    # a failure names the value and leaves no partial CSV behind
    assert cli.main(["diagnose", "dispersion", "--gamma", gamma]) == code
    out, err = capsys.readouterr()
    assert (out == "") == (code != cli.EXIT_OK)
    if code == cli.EXIT_CONFIG:
        assert f"--gamma {float(gamma)!r}" in err


def test_cli_diagnose_residual(capsys):
    # the printed numbers are the ones the closed form's gate accepted
    for preset in ("table1", "table2", "table3"):
        assert cli.main(["diagnose", "residual", preset]) == 0
        out = capsys.readouterr().out
        r1, r2 = experiments.closed_form(PRESETS[preset]).residual
        assert out == f"equation,max_residual\neta,{r1:.6E}\nu,{r2:.6E}\n", preset


def test_cli_diagnose_residual_refuses_data_without_closed_form(capsys):
    assert cli.main(["diagnose", "residual", "table5"]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert "'table5'" in err and "'piecewise-quadratic'" in err
    assert "error tables" not in err


def test_cli_diagnose_residual_centres_the_grid_on_x0(tmp_path, monkeypatch, capsys):
    # a config's x0 moves the wave and the gate's grid with it
    cfg = tmp_path / "moved.cfg"
    cfg.write_text("include-preset = table1\nx0 = 25\n")
    calls = []
    pde_residual = experiments.model.pde_residual
    monkeypatch.setattr(experiments.model, "pde_residual",
                        lambda sol, grid, t: calls.append((grid, t)) or pde_residual(sol, grid, t))
    assert cli.main(["diagnose", "residual", str(cfg)]) == 0
    assert [t for _, t in calls] == [0.0, 0.5, 1.0]
    grid = calls[0][0]
    assert grid[1000] == pytest.approx(25.0) and grid[0] + grid[-1] == pytest.approx(50.0)


@pytest.mark.parametrize("argv", [
    "quadrature --N 3 --gamma 7 --preset nonsense --theta2 abc",
    "dispersion --N 999999 --mu 5",
    "residual --N 0 --mu 9 --matrices",
    "residual --preset bbm-traveling --theta2 0.9",
])
def test_cli_diagnose_refuses_other_diagnostics_flags(capsys, argv):
    # each diagnostic parses only its own flags
    with pytest.raises(SystemExit) as exc:
        cli.main(["diagnose", *argv.split()])
    assert exc.value.code == cli.EXIT_CONFIG
    assert capsys.readouterr().out == ""


EDGES = ("nan", "inf", "-inf", "0", "-1", "1e308")
# valid values per key; every generated config sets n (N <= 32) and t-end
FUZZ_VALUES = {
    "include-preset": ("table1", "table2", "table3", "table5", "table6", "bore"),
    "mode": ("error_table", "ratio_table", "snapshot"),
    "theta2": ("2/3", "9/11", "7/9"),
    "b-neq-d": ("true", "no"),
    "left": ("-1", "-16"),
    "right": ("1", "16"),
    "n": ("16", "32", "8 16 32"),
    "k": ("0.05", "0.25"),
    "k-per-h": ("0.1",),
    "k-list": ("0.5 0.25", "0.25 0.125"),
    "gamma": ("0.5", "order3", "midpoint order3"),
    "t-end": ("0.5", "1"),
    "initial-data": experiments.DATA_PRESETS,
    "boundary": ("homogeneous", "exact"),
    "norm": ("L2xL2", "H1xH1", "H2xH1", "L2xL2 H1xH1"),
    "amplitude": ("0.25", "1"),
    "kappa": ("0.7",),
    "rho": ("2",),
    "c-s": ("1",),
    "x0": ("0", "0.5"),
    "snapshot-times": ("0.5", "0.25 0.5"),
}


@st.composite
def fuzzed_configs(draw):
    def value(key):  # an edge one time in five
        edge = draw(st.sampled_from(range(5))) == 4
        return draw(st.sampled_from(EDGES if edge else FUZZ_VALUES[key]))

    optional = sorted(set(FUZZ_VALUES) - {"include-preset", "n", "t-end"})
    keys = draw(st.lists(st.sampled_from(optional), unique=True, max_size=4))
    lines = [f"{key} = {value(key)}" for key in ["include-preset"] + keys + ["n", "t-end"]]
    return "\n".join(lines) + "\n"


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(fuzzed_configs())
def test_cli_run_fuzzed_configs_exit_cleanly(text):
    # exit 0, 2 or 3 with no escaping exception, and exit 0 only with finite CSV cells
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "fuzz.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out")
        rc = cli.main(["run", cfg, "--output", out])
        assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL)
        if rc == cli.EXIT_OK:
            paths = glob.glob(os.path.join(out, "**", "*.csv"), recursive=True)
            assert paths
            for path in paths:
                with open(path) as fh:
                    cells = [cell for row in list(csv.reader(fh))[1:] for cell in row if cell]
                assert all(math.isfinite(float(cell)) for cell in cells), (text, path)
