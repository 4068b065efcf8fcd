"""Tests for serialization, plotting, and the command line front end."""

import contextlib
import dataclasses
import enum
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import freqlab.cli
from freqlab.cli import MODULUS_DOC, SOLVE_DOC, SWEEP_DOC, main
from freqlab.experiments import (
    default_config,
    registered_scenarios,
    run_scenario,
)
from freqlab.experiments.base import (
    BOUNDARY_KINDS,
    FIELD_KINDS,
    PAIR_MODES,
    POTENTIAL_KINDS,
    SCENARIO_KEYS,
)
from freqlab.io import (
    REQUIRED,
    ConfigError,
    canonical_json,
    config_hash,
    load_config,
    read_grid,
    write_csv,
    write_grid,
    write_json,
)
from freqlab.solver import PolarGrid, solve_dirichlet
from freqlab.svg import render_line_plot, render_margin_plot

LOW = {"n_r": 33, "n_theta": 64}


def write_config(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return str(path)


@pytest.fixture(scope="module")
def stability_report():
    return run_scenario(default_config("stability", **LOW))


# -- json and csv ----------------------------------------------------------


def test_canonical_json_is_sorted_and_newline_terminated():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


class _Color(enum.Enum):
    RED = "red"


@dataclasses.dataclass(frozen=True)
class _Pair:
    left: float
    right: object
    total: float = dataclasses.field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", self.left + 1.0)


def test_canonical_json_plains_numpy_enums_and_dataclasses():
    rich = {
        "f": np.float64(0.1), "i": np.int64(-3), "b": np.bool_(True),
        "s": np.float32(0.5), "zero_d": np.array(2.5),
        "two_d": np.arange(4, dtype=np.int32).reshape(2, 2),
        "color": _Color.RED,
        "pair": _Pair(np.float64(1.5), [_Color.RED, (np.int64(7), None)]),
        "nested": [({"k": np.array([1.0, 2.0])},), np.float64(1e-300)],
    }
    plain = {
        "f": 0.1, "i": -3, "b": True, "s": 0.5, "zero_d": 2.5,
        "two_d": [[0, 1], [2, 3]],
        "color": "red",
        "pair": {"left": 1.5, "right": ["red", [7, None]], "total": 2.5},
        "nested": [[{"k": [1.0, 2.0]}], 1e-300],
    }
    assert canonical_json(rich) == canonical_json(plain)


@pytest.mark.parametrize("bad", [
    np.array([1.0, math.nan]),
    np.array([[math.inf]]),
    _Pair(math.nan, 0),
    _Pair(0.0, np.float64(-math.inf)),
])
def test_canonical_json_rejects_non_finite_numbers(bad):
    with pytest.raises(ValueError):
        canonical_json({"a": [bad]})


def test_canonical_json_names_an_unwritable_type():
    with pytest.raises(TypeError, match="object"):
        canonical_json({"a": object()})


def test_config_hash_tracks_content():
    base = {"schema": 1, "x": 0.25}
    assert config_hash(base) == config_hash({"x": 0.25, "schema": 1})
    assert config_hash(base) != config_hash({"schema": 1, "x": 0.26})


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    write_json(str(path), {"schema": 1, "value": 0.5})
    doc = load_config(str(path))
    assert doc == {"schema": 1, "value": 0.5}


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="No such file"):
        load_config(str(tmp_path / "nope.json"))


def test_load_config_reports_parse_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 1,\n  "x": }\n')
    with pytest.raises(ConfigError, match=r"bad\.json:2:8"):
        load_config(str(path))


@pytest.mark.parametrize("doc", [
    {"value": 1},
    {"schema": 99},
    [1, 2, 3],
    {"schema": True},
    {"schema": 1.0},
])
def test_load_config_rejects_bad_schema(tmp_path, doc):
    path = write_config(tmp_path / "cfg.json", doc)
    with pytest.raises(ConfigError):
        load_config(path)


def test_write_csv_crlf_and_roundtrip_floats(tmp_path):
    path = str(tmp_path / "table.csv")
    values = [1.0 / 3.0, 2.0 ** -40, 12345.6789]
    write_csv(path, ["i", "x"], [(i, v) for i, v in enumerate(values)])
    raw = open(path, "rb").read()
    assert raw.count(b"\r\n") == 4
    lines = raw.decode("ascii").splitlines()
    assert lines[0] == "i,x"
    for line, expect in zip(lines[1:], values):
        assert float(line.split(",")[1]) == expect


def test_write_json_is_atomic(tmp_path):
    path = str(tmp_path / "out.json")
    write_json(path, {"schema": 1})
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


# -- grid files ------------------------------------------------------------


@pytest.mark.parametrize("grid", [
    PolarGrid.disk(9, 16),
    PolarGrid.disk(9, 16, r_min=0.25),
])
def test_grid_file_roundtrip(tmp_path, grid):
    rng = np.random.default_rng(3)
    values = rng.standard_normal(grid.node_count)
    path = str(tmp_path / "u.grid")

    class Holder:
        pass

    holder = Holder()
    holder.grid = grid
    holder.values = values
    write_grid(path, holder)
    grid2, values2 = read_grid(path)
    assert grid2.n_theta == grid.n_theta
    np.testing.assert_array_equal(grid2.radii, grid.radii)
    np.testing.assert_array_equal(values2, values)


def test_read_grid_rejects_corrupt_header(tmp_path):
    path = tmp_path / "u.grid"
    path.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(ConfigError, match="magic"):
        read_grid(str(path))


def test_read_grid_rejects_unknown_kind(tmp_path):
    # 0, a disk, is the only grid kind a file may name
    grid = PolarGrid.disk(9, 16)
    path = tmp_path / "u.grid"
    write_grid(str(path), SimpleNamespace(grid=grid,
                                          values=np.ones(grid.node_count)))
    blob = bytearray(path.read_bytes())
    assert blob[8:12] == (0).to_bytes(4, "little")
    blob[8:12] = (1).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError, match="unknown grid kind code 1"):
        read_grid(str(path))


# -- svg rendering ---------------------------------------------------------


def test_line_plot_structure():
    x = np.linspace(0.0, 1.0, 17)
    svg = render_line_plot(
        [("first", x, np.sin(x)), ("a<b", x, np.cos(x))],
        title="demo", x_label="t", y_label="value")
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert "demo" in svg and "a&lt;b" in svg
    assert render_line_plot(
        [("first", x, np.sin(x)), ("a<b", x, np.cos(x))],
        title="demo", x_label="t", y_label="value") == svg


def test_line_plot_zero_line_and_nan_filtering():
    x = np.arange(5.0)
    y = np.array([-1.0, np.nan, 1.0, 2.0, -0.5])
    svg = render_line_plot([("s", x, y)], zero_line=True)
    assert "stroke-dasharray" in svg
    assert "nan" not in svg
    svg_pos = render_line_plot([("s", x, np.abs(x) + 1.0)], zero_line=True)
    assert "stroke-dasharray" not in svg_pos


def test_margin_plot_from_report(stability_report):
    svg = render_margin_plot(stability_report)
    assert svg.startswith("<svg ")
    assert "stability" in svg
    assert stability_report.verdict.value in svg


# -- cli: modulus ----------------------------------------------------------


def test_cli_modulus_osgood(tmp_path, capsys):
    cfg = write_config(tmp_path / "m.json",
                       {"schema": 1, "modulus": {"kind": "log_power",
                                                 "p": 1.0}})
    out = str(tmp_path / "out")
    assert main(["modulus", "--config", cfg, "--out", out]) == 0
    assert "Osgood" in capsys.readouterr().out
    report = json.load(open(os.path.join(out, "modulus_report.json")))
    assert report["verdict"] == "Osgood"
    assert report["phi_integrable"]["finite"] is True
    assert report["psi_submultiplicative"]["holds"] is True
    for name in ("modulus_table.csv", "modulus.svg", "manifest.json"):
        assert os.path.exists(os.path.join(out, name))


@pytest.mark.parametrize("flag", [["--seed", "5"], ["--resolution", "9,16"],
                                  ["--refine"]])
def test_cli_modulus_rejects_grid_options(tmp_path, flag):
    # modulus reads no grid and no seed override: argparse refuses them
    cfg = write_config(tmp_path / "m.json",
                       {"schema": 1, "modulus": {"kind": "linear"}})
    out = str(tmp_path / "out")
    assert main(["modulus", "--config", cfg, "--out", out, *flag]) == 2
    assert not os.path.exists(out)


def test_cli_modulus_non_osgood(tmp_path):
    cfg = write_config(tmp_path / "m.json",
                       {"schema": 1, "modulus": {"kind": "power",
                                                 "alpha": 0.7}})
    out = str(tmp_path / "out")
    assert main(["modulus", "--config", cfg, "--out", out]) == 0
    report = json.load(open(os.path.join(out, "modulus_report.json")))
    assert report["verdict"] == "NonOsgood"
    assert report["phi_integrable"]["finite"] is True


def test_cli_modulus_tabulated(tmp_path):
    # the block Modulus.to_config writes for a tabulated modulus
    t = [1e-3, 1e-2, 0.1, 1.0]
    spec = {"kind": "tabulated", "t": t, "omega": [s ** 0.5 for s in t]}
    cfg = write_config(tmp_path / "m.json", {"schema": 1, "modulus": spec})
    out = str(tmp_path / "out")
    assert main(["modulus", "--config", cfg, "--out", out]) == 0
    report = json.load(open(os.path.join(out, "modulus_report.json")))
    assert report["modulus"] == spec
    assert report["verdict"] == "NonOsgood"


def test_cli_modulus_unknown_kind(tmp_path, capsys):
    cfg = write_config(tmp_path / "m.json",
                       {"schema": 1, "modulus": {"kind": "cubic"}})
    out = tmp_path / "out"
    assert main(["modulus", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unknown modulus kind 'cubic'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_modulus_missing_block(tmp_path, capsys):
    cfg = write_config(tmp_path / "m.json", {"schema": 1})
    assert main(["modulus", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    assert "modulus" in capsys.readouterr().err


def test_cli_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("{broken")
    assert main(["modulus", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert ":1:" in capsys.readouterr().err


_HARMONIC = {"kind": "harmonic", "degree": 1}
# an integer literal beyond the float range, where a float is expected
_HUGE = 10 ** 400


@pytest.mark.parametrize("command, doc", [
    ("solve", {"grid": 3, "boundary": _HARMONIC}),
    ("solve", {"grid": [33, 64], "boundary": _HARMONIC}),
    ("modulus", {"modulus": 3}),
    ("modulus", {"modulus": {"kind": "linear"}, "c_m": "x"}),
    ("modulus", {"modulus": {"kind": "linear"}, "c_m": None}),
    ("modulus", {"modulus": {"kind": "linear"}, "seed": "x"}),
    ("modulus", {"modulus": {"kind": "log_power", "p": 1e-20}}),
    ("modulus", {"modulus": {"kind": "log_power", "p": 149.0}}),
    ("modulus", {"modulus": {"kind": "linear"}, "c_m": _HUGE}),
    ("modulus", {"modulus": {"kind": "tabulated", "t": [0.5, 1.0],
                             "omega": [_HUGE, _HUGE]}}),
    ("solve", {"grid": {"n_r": 17, "n_theta": 32, "r_min": _HUGE},
               "boundary": _HARMONIC}),
    ("solve", {"grid": {"n_r": 17, "n_theta": 32}, "boundary": _HARMONIC,
               "profile": {"r_lo": _HUGE}}),
    ("solve", {"grid": {"n_r": 17, "n_theta": 32}, "boundary": _HARMONIC,
               "field": {"kind": "holder", "alpha": 0.75,
                         "amplitude": _HUGE}}),
    ("experiment", {"scenario": "eps_approx", "radii": [_HUGE]}),
], ids=["solve_grid_int", "solve_grid_list", "modulus_int", "c_m_str",
        "c_m_null", "modulus_seed_str", "log_power_omega_zero",
        "log_power_omega_overflow", "c_m_huge_int", "tabulated_huge_int",
        "r_min_huge_int", "r_lo_huge_int", "amplitude_huge_int",
        "radii_huge_int"])
def test_cli_ill_typed_block_is_config_error(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path / "c.json", {"schema": 1, **doc})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


_NON_FINITE = [
    ("modulus", '{"schema": 1, "modulus": {"kind": "log_power", "p": %s}}'),
    ("experiment", '{"schema": 1, "scenario": "eps_approx", "eps": %s}'),
    ("solve", '{"schema": 1, "grid": {"n_r": 17, "n_theta": 32}, '
              '"boundary": {"kind": "mixture", "terms": [[1, %s]]}}'),
]


@pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e400"])
@pytest.mark.parametrize("command, template", _NON_FINITE,
                         ids=[c for c, _ in _NON_FINITE])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, command, template,
                                        literal):
    path = tmp_path / "c.json"
    path.write_text(template % literal)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"{literal} is not finite" in err
    assert not out.exists()


def test_cli_import_leaves_scipy_solvers_unloaded(tmp_path):
    # the program needs numpy alone: the CLI import, the numeric Osgood
    # and phi checks of a tabulated modulus, a Holder synthesis, a solve,
    # a mollified cusp field (its profile table and its rule), an
    # empirical modulus and a growth bound load no scipy module; scipy
    # is a test oracle only.  Nor do they load numpy.ma, which
    # np.unique imports.
    import freqlab

    src = os.path.dirname(os.path.dirname(os.path.abspath(freqlab.__file__)))
    t = [0.001, 0.01, 0.1, 1.0]
    cfg = write_config(tmp_path / "m.json", {"schema": 1, "modulus": {
        "kind": "tabulated", "t": t, "omega": [s ** 0.5 for s in t]}})
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "import freqlab.cli",
        f"assert freqlab.cli.main(['modulus', '--config', {cfg!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0",
        "from freqlab.coefficients import generate_holder",
        "from freqlab.solver import PolarGrid, solve_dirichlet",
        "g = PolarGrid.disk(17, 32)",
        "solve_dirichlet(generate_holder(0.75, 0.05, 7), 1.0,",
        "                np.cos(g.theta), g)",
        "from freqlab.coefficients import CoefficientField, mollify",
        "from freqlab.modulus import Modulus",
        "f = mollify(CoefficientField.cusp_isotropic(Modulus.log_power(1.0),",
        "                                            0.4), 0.1)",
        "# the rule, the table and the far constant, in that order",
        "d = np.array([[0.05], [0.2], [0.6]])",
        "assert np.all(np.isfinite(f.evaluate((0.3, 0.4) + d * (0.6, -0.8))))",
        "from freqlab.coefficients import empirical_modulus",
        "from freqlab.growth import continuous_growth_bound",
        "empirical_modulus(f, 100)",
        "continuous_growth_bound(Modulus.log_power(1.0), 2.0,",
        "                        lambda s: s, 1.0, 1e-3)",
        "print('numpy.ma' in sys.modules)",
        "print(sorted(m for m in sys.modules",
        "             if m == 'scipy' or m.startswith('scipy.')))",
    ])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert "NonOsgood" in done.stdout  # the modulus report's verdict
    assert done.stdout.splitlines()[-2:] == ["False", "[]"]


# -- cli: solve ------------------------------------------------------------


def test_cli_solve_harmonic_profile(tmp_path):
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1,
        "grid": {"n_r": 33, "n_theta": 64},
        "boundary": {"kind": "harmonic", "degree": 1},
    })
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    rows = open(os.path.join(out, "profile.csv")).read().splitlines()
    assert rows[0] == "r,D,H,N"
    freqs = np.array([float(line.split(",")[3]) for line in rows[1:]])
    assert freqs.size > 10
    np.testing.assert_allclose(freqs, 1.0, atol=0.01)
    report = json.load(open(os.path.join(out, "solve_report.json")))
    assert report["residual_norm"] < 1e-10
    assert "factor_fill" not in report
    assert isinstance(report["iterations"], int)
    assert report["iterations"] >= 1
    grid, values = read_grid(os.path.join(out, "solution.grid"))
    assert values.size == grid.node_count


def test_cli_solve_missing_grid_block(tmp_path, capsys):
    # a missing grid block, too few rings, too few angles
    for extra in ({}, {"grid": {"n_r": 1, "n_theta": 32}},
                  {"grid": {"n_r": 17, "n_theta": 4}}):
        cfg = write_config(tmp_path / "s.json", {
            "schema": 1, "boundary": {"kind": "harmonic", "degree": 1},
            **extra})
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert "grid" in capsys.readouterr().err


def test_cli_solve_rejects_oversized_grid(tmp_path, capsys):
    # 10^13 angles would need 73 TiB for the angles alone: the size is
    # refused before any array of that length is built
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "grid": {"n_r": 3, "n_theta": 10 ** 13, "r_min": 0.1},
        "boundary": {"kind": "harmonic", "degree": 1}})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "exceeds the limit" in err
    assert not out.exists()


def test_cli_solve_resolution_override(tmp_path):
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1,
        "grid": {"n_r": 33, "n_theta": 64},
        "boundary": {"kind": "harmonic", "degree": 2},
    })
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out,
                 "--resolution", "17,32"]) == 0
    report = json.load(open(os.path.join(out, "solve_report.json")))
    assert report["grid"] == {"n_r": 17, "n_theta": 32}


def test_cli_solve_outputs_are_reproducible(tmp_path):
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1,
        "grid": {"n_r": 33, "n_theta": 64},
        "boundary": {"kind": "fourier", "modes": 4},
        "field": {"kind": "holder", "alpha": 0.75, "amplitude": 0.05},
        "seed": 11,
    })
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["solve", "--config", cfg, "--out", out1, "--refine"]) == 0
    assert main(["solve", "--config", cfg, "--out", out2, "--refine"]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    assert "profile_refined.csv" in names
    for name in names:
        if name == "manifest.json":
            continue
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, name
    manifest = json.load(open(os.path.join(out1, "manifest.json")))
    assert set(manifest["outputs"]) == set(names) - {"manifest.json"}
    assert manifest["seed"] == 11


# -- cli: experiment -------------------------------------------------------


def test_cli_experiment_single_scenario(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["experiment", "stability", "--resolution", "33,64",
                 "--out", out]) == 0
    assert "Consistent" in capsys.readouterr().out
    summary = json.load(open(os.path.join(out, "sweep_summary.json")))
    entry = summary["scenarios"][0]
    assert entry["scenario"] == "stability"
    assert entry["verdict"] == "Consistent"
    report = json.load(open(os.path.join(out, "stability.report.json")))
    assert report["config"]["n_r"] == 33
    rows = open(os.path.join(out, "stability.margins.csv"), "rb").read()
    assert rows.startswith(b"name,radius,lhs,rhs,margin,refined_margin\r\n")
    assert os.path.exists(os.path.join(out, "stability.margins.svg"))


def test_cli_experiment_unknown_scenario(tmp_path, capsys):
    assert main(["experiment", "no_such_thing",
                 "--out", str(tmp_path / "out")]) == 2
    assert "unknown scenario" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--resolution", "9,10000000000000"],
    # 513 x 1024 runs, but --refine makes it 1025 x 2048, whose own
    # refinement is past the limit
    ["--resolution", "513,1024", "--refine"],
], ids=["huge", "refined"])
def test_cli_experiment_rejects_oversized_grid(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert main(["experiment", "approx_v", "--out", str(out), *args]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "exceeds the limit" in err
    assert not out.exists()


def test_cli_experiment_rejects_names_plus_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "e.json",
                       {"schema": 1, "scenario": "stability"})
    assert main(["experiment", "stability", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    assert "not both" in capsys.readouterr().err
    cfg = write_config(tmp_path / "r.json",
                       {"schema": 1, "scenario": "stability", "radii": 0.5})
    assert main(["experiment", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    assert "radii" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [
    {"n_r": "65"}, {"n_theta": 32.5}, {"seed": "1"}, {"eps": "0.1"},
    {"gamma": None}, {"r_min": "x"}, {"radii": ["0.5"]}, {"n_r": True},
    {"field_spec": "x"}, {"pair_spec": 3}, {"scenario": ["eps_approx"]},
], ids=["n_r_str", "n_theta_float", "seed_str", "eps_str", "gamma_null",
        "r_min_str", "radii_str", "n_r_bool", "field_spec_str",
        "pair_spec_int", "scenario_list"])
def test_cli_experiment_ill_typed_field_is_config_error(tmp_path, capsys,
                                                         entry):
    cfg = write_config(tmp_path / "e.json",
                       {"schema": 1, "scenario": "eps_approx", **entry})
    out = tmp_path / "out"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and next(iter(entry)) in err
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    {"profile": {"r_lo": "x"}}, {"profile": {"r_hi": None}},
    {"profile": 3}, {"seed": "x"},
], ids=["r_lo", "r_hi", "profile", "seed"])
def test_cli_solve_bad_profile_window_or_seed(tmp_path, capsys, extra):
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "grid": {"n_r": 17, "n_theta": 32},
        "boundary": {"kind": "harmonic", "degree": 1}, **extra})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_experiment_sweep_manifest(tmp_path):
    cfg = write_config(tmp_path / "e.json", {
        "schema": 1,
        "sweep": [
            {"scenario": "stability", "n_r": 33, "n_theta": 64},
            {"scenario": "stability", "n_r": 33, "n_theta": 64, "seed": 7},
            {"scenario": "eps_approx", **LOW, "field_spec": {"kind": "bogus"}},
        ],
    })
    outs = [str(tmp_path / "jobs1"), str(tmp_path / "jobs2")]
    for jobs, out in zip(("1", "2"), outs):
        assert main(["experiment", "--config", cfg, "--jobs", jobs,
                     "--out", out]) == 2
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    assert {"stability.report.json", "stability-2.report.json",
            "eps_approx.error.json"} <= set(names)
    # --jobs changes no output but the manifest's wall-clock time
    for name in names:
        if name != "manifest.json":
            a = open(os.path.join(outs[0], name), "rb").read()
            b = open(os.path.join(outs[1], name), "rb").read()
            assert a == b, name
    summary = json.load(open(os.path.join(outs[1], "sweep_summary.json")))
    assert [e.get("verdict", e.get("status")) for e in summary["scenarios"]] \
        == ["Consistent", "Consistent", "field_error"]


def test_cli_experiment_regime_error_exit(tmp_path, capsys):
    cfg = write_config(tmp_path / "e.json", {
        "schema": 1, "scenario": "schroedinger",
        "n_r": 33, "n_theta": 64, "radii": [0.9],
        "field_spec": {"kind": "constant", "value": 1.0},
        "potential_spec": {"kind": "constant", "value": -12.0},
    })
    out = str(tmp_path / "out")
    assert main(["experiment", "--config", cfg, "--out", out]) == 1
    assert "regime" in capsys.readouterr().err
    error = json.load(open(os.path.join(out, "schroedinger.error.json")))
    assert error["status"] == "regime_error"
    assert error["max_radius"] == pytest.approx(2.404826 / np.sqrt(12.0),
                                                abs=0.05)


def test_cli_experiment_field_error_exit(tmp_path, capsys):
    # a Holder amplitude that leaves [1/2, 2] cannot be synthesized
    cfg = write_config(tmp_path / "e.json", {"schema": 1, "sweep": [{
        "scenario": "tildeN", **LOW,
        "field_spec": {"kind": "holder", "alpha": 0.5, "amplitude": 0.9},
    }]})
    out = str(tmp_path / "out")
    assert main(["experiment", "--config", cfg, "--out", out]) == 2
    assert "field_error" in capsys.readouterr().err
    error = json.load(open(os.path.join(out, "tildeN.error.json")))
    assert error["status"] == "field_error"
    assert "reduce amplitude" in error["message"]


@pytest.mark.parametrize("spec,status", [
    ({"field_spec": {"kind": "bogus"}}, "field_error"),
    ({"field_spec": {"kind": "holder", "alpha": 0.75}}, "field_error"),
    ({"boundary_spec": {"kind": "bogus"}}, "scenario_error"),
    # p = 1e-20 rounds t_cut to 1, so omega would vanish
    ({"field_spec": {"kind": "cusp", "amplitude": 0.2,
                     "modulus": {"kind": "log_power", "p": 1e-20}}},
     "field_error"),
    ({"field_spec": {"kind": "holder", "alpha": 0.75, "amplitude": _HUGE}},
     "field_error"),
    ({"boundary_spec": {"kind": "constant", "value": _HUGE}},
     "scenario_error"),
])
def test_cli_experiment_bad_spec_writes_error_file(tmp_path, capsys, spec,
                                                   status):
    cfg = write_config(tmp_path / "e.json",
                       {"schema": 1, "scenario": "eps_approx", **spec})
    out = str(tmp_path / "out")
    assert main(["experiment", "--config", cfg, "--resolution", "17,32",
                 "--out", out]) == 2
    assert status in capsys.readouterr().err
    error = json.load(open(os.path.join(out, "eps_approx.error.json")))
    assert error["status"] == status
    summary = json.load(open(os.path.join(out, "sweep_summary.json")))
    assert summary["scenarios"] == [{k: v for k, v in error.items()
                                     if k != "schema"}]


@pytest.mark.parametrize("scenario, spec", [
    ("eps_approx", {"eps": _HUGE}),
    ("stability", {"pair_spec": {"mode": "scaled", "eps": _HUGE}}),
    ("schroedinger", {"potential_spec": {"kind": "constant",
                                         "value": _HUGE}}),
])
def test_cli_scenario_scalar_beyond_float_range_writes_error_file(
        tmp_path, capsys, scenario, spec):
    cfg = write_config(tmp_path / "e.json",
                       {"schema": 1, "scenario": scenario, **spec})
    out = str(tmp_path / "out")
    assert main(["experiment", "--config", cfg, "--resolution", "17,32",
                 "--out", out]) == 2
    assert "scenario_error" in capsys.readouterr().err
    error = json.load(open(os.path.join(out, f"{scenario}.error.json")))
    assert error["status"] == "scenario_error"
    assert "too large" in error["message"]


def test_cli_integer_literal_past_digit_limit_is_config_error(tmp_path,
                                                             capsys):
    path = tmp_path / "c.json"
    path.write_text('{"schema": 1, "grid": {"n_r": 17, "n_theta": 32}, '
                    '"boundary": {"kind": "harmonic", "degree": 1%s}}'
                    % ("0" * 5000))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "5001 digits" in err
    assert not out.exists()


# a valid integer, but a degree no grid resolves: z ** degree overflows
_HUGE_DEGREE = 10 ** 20


@pytest.mark.parametrize("command, boundary, path", [
    ("solve", {"kind": "harmonic", "degree": _HUGE_DEGREE},
     "boundary.degree"),
    ("solve", {"kind": "mixture", "terms": [[1, 1.0], [_HUGE_DEGREE, 0.5]]},
     "boundary.terms[1].degree"),
    ("experiment", {"kind": "harmonic", "degree": -_HUGE_DEGREE},
     "boundary_spec.degree"),
    ("experiment", {"kind": "mixture", "terms": [[_HUGE_DEGREE, 1.0]]},
     "boundary_spec.terms[0].degree"),
], ids=["solve_harmonic", "solve_mixture", "sweep_harmonic", "sweep_mixture"])
def test_cli_huge_degree_is_config_error(tmp_path, capsys, command, boundary,
                                         path):
    if command == "solve":
        doc = {"grid": {"n_r": 17, "n_theta": 32}, "boundary": boundary}
    else:
        doc = {"sweep": [{"scenario": "eps_approx", "n_r": 17, "n_theta": 32,
                          "boundary_spec": boundary}]}
    cfg = write_config(tmp_path / "c.json", {"schema": 1, **doc})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: " in err and "is not in [-1048576, 1048576]" in err
    if command == "solve":
        assert not out.exists()
    else:
        error = json.load(open(out / "eps_approx.error.json"))
        assert error["status"] == "scenario_error"


@pytest.mark.parametrize("command, path", [
    ("solve", "boundary.modes"), ("experiment", "boundary_spec.modes")])
def test_cli_huge_fourier_modes_is_config_error(tmp_path, capsys, command,
                                                path):
    # the bound is checked before the coefficients are drawn
    boundary = {"kind": "fourier", "modes": _HUGE_DEGREE}
    if command == "solve":
        doc = {"grid": {"n_r": 17, "n_theta": 32}, "boundary": boundary}
    else:
        doc = {"sweep": [{"scenario": "eps_approx", "n_r": 17, "n_theta": 32,
                          "boundary_spec": boundary}]}
    cfg = write_config(tmp_path / "c.json", {"schema": 1, **doc})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: " in err and "is not in [0, 1048576]" in err
    if command == "experiment":
        error = json.load(open(out / "eps_approx.error.json"))
        assert error["status"] == "scenario_error"


@pytest.mark.parametrize("command", ["solve", "experiment"])
def test_cli_deeply_nested_config_is_config_error(tmp_path, capsys, command):
    # json.loads recurses once per level, past the recursion limit
    path = tmp_path / "c.json"
    path.write_text('{"schema": 1, "grid": ' + "[" * 100000)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "nested too deep" in err
    assert not out.exists()


@pytest.mark.parametrize("scenario, spec", [
    ("eps_approx", {"pair_spec": {"mode": "bogus"},
                    "potential_spec": {"kind": "x"}}),
    ("stability", {"potential_spec": {"kind": "constant", "value": 1.0}}),
    ("schroedinger", {"pair_spec": {"mode": "same"}}),
], ids=["eps_approx_both", "stability_potential", "schroedinger_pair"])
def test_cli_unread_spec_is_scenario_error(tmp_path, capsys, scenario, spec):
    # only the scenario whose registered defaults name a spec reads it
    cfg = write_config(tmp_path / "e.json",
                       {"schema": 1, "scenario": scenario, **spec})
    out = str(tmp_path / "out")
    assert main(["experiment", "--config", cfg, "--resolution", "17,32",
                 "--out", out]) == 2
    assert "scenario_error" in capsys.readouterr().err
    error = json.load(open(os.path.join(out, f"{scenario}.error.json")))
    assert error["status"] == "scenario_error"
    assert error["message"].startswith(f"{next(iter(spec))}: {scenario} "
                                       "reads no")


# -- cli: the config schema -------------------------------------------------


@pytest.mark.parametrize("command, doc, path", [
    ("modulus", {"modulus": {"kind": "power", "alpha": 0.4}, "cm": 5.0},
     "cm"),
    ("modulus", {"modulus": {"kind": "power", "alpha": 0.4, "alfa": 0.9}},
     "modulus.alfa"),
    ("solve", {"grid": {"n_r": 17, "n_theta": 32}, "boundary": _HARMONIC,
               "feild": {"kind": "identity"}}, "feild"),
    ("solve", {"grid": {"n_r": 17, "n_theta": 32, "rmin": 0.3},
               "boundary": _HARMONIC}, "grid.rmin"),
    ("solve", {"grid": {"n_r": 17, "n_theta": 32}, "boundary": _HARMONIC,
               "profil": {"r_lo": 0.3}}, "profil"),
    ("solve", {"grid": {"n_r": 17, "n_theta": 32},
               "boundary": {"kind": "harmonic", "degre": 2}},
     "boundary.degre"),
    # a seed beside the sweep is no sweep's seed
    ("experiment", {"seed": 7, "sweep": [{"scenario": "tildeN"}]}, "seed"),
], ids=["modulus_cm", "modulus_alfa", "solve_feild", "grid_rmin",
        "solve_profil", "boundary_degre", "sweep_seed"])
def test_cli_misspelt_key_is_config_error(tmp_path, capsys, command, doc,
                                          path):
    cfg = write_config(tmp_path / "c.json", {"schema": 1, **doc})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: unknown config keys: " + path in err
    assert not out.exists()


@pytest.mark.parametrize("scenario, spec, status", [
    ("tildeN", {"field_spec": {"kind": "holder", "alpha": 0.75,
                               "amplitude": 0.05, "sed": 99}}, "field_error"),
    ("dichot", {"field_spec": {"kind": "cusp", "amplitude": 0.15, "modulus": {
        "kind": "log_power", "p": 1.0, "t_cut": 0.5}}}, "field_error"),
    ("stability", {"pair_spec": {"mode": "bump", "esp": 0.05}},
     "scenario_error"),
    ("schroedinger", {"potential_spec": {"kind": "constant", "valeu": 2.0}},
     "scenario_error"),
], ids=["holder_sed", "log_power_t_cut", "pair_esp", "potential_valeu"])
def test_cli_sweep_entry_misspelt_spec_writes_error_file(tmp_path, capsys,
                                                        scenario, spec,
                                                        status):
    cfg = write_config(tmp_path / "e.json", {"schema": 1, "sweep": [
        {"scenario": scenario, "n_r": 17, "n_theta": 32, **spec}]})
    out = str(tmp_path / "out")
    assert main(["experiment", "--config", cfg, "--out", out]) == 2
    assert status in capsys.readouterr().err
    error = json.load(open(os.path.join(out, f"{scenario}.error.json")))
    assert error["status"] == status
    assert next(iter(spec)) in error["message"]


# the table each object-typed key is checked against where it is built
_SPEC_TABLES = {
    "field": FIELD_KINDS, "field_spec": FIELD_KINDS,
    "boundary": BOUNDARY_KINDS, "boundary_spec": BOUNDARY_KINDS,
    "pair_spec": PAIR_MODES, "potential_spec": POTENTIAL_KINDS,
}
# a valid value for each key whose default does not serve
_SAMPLES = {
    "schema": 1, "n_r": 9, "n_theta": 16, "r_min": 0.05, "degree": 2,
    "terms": [[1, 1.0], [3, 0.5]], "entries": [1.0, 2.0],
    "gradient": [0.1, 0.0], "alpha": 0.5, "amplitude": 0.05, "eps": 0.1,
    "r_in": 0.3, "p": 1.0, "t": [0.1, 1.0], "omega": [0.2, 0.5],
}
# an experiment document's specs default to its scenario's registered ones
_EXPERIMENT_DOC = {**SCENARIO_KEYS, "schema": ("int", REQUIRED),
                   "field_spec": ("object", None),
                   "boundary_spec": ("object", None)}
_NOT_NUMBERS = [True, "1", [1], None]


def _nested(key, entry):
    """The table of an object-typed key: nested, or its spec's; or None."""
    return entry[0] if isinstance(entry[0], dict) else _SPEC_TABLES.get(key)


def _draw_doc(draw, table):
    """A valid object of ``table``: its required keys and a drawn subset
    of the others."""
    doc = {}
    for key, entry in table.items():
        if isinstance(entry, dict):
            doc[key] = draw(st.sampled_from(sorted(entry)))
            doc.update(_draw_doc(draw, entry[doc[key]]))
        elif entry[1] == REQUIRED or draw(st.booleans()):
            sub = _nested(key, entry)
            doc[key] = (_draw_doc(draw, sub) if sub
                        else _SAMPLES.get(key, entry[1]))
    return doc


def _objects(doc, table, path=""):
    """(path, object, its table with the chosen kind's keys) for ``doc``
    and every object nested in it."""
    flat = {}
    for key, entry in table.items():
        if isinstance(entry, dict):
            flat[key] = ("str", REQUIRED)
            entry = entry[doc[key]]
        flat.update(entry if isinstance(entry, dict) else {key: entry})
    yield path, doc, flat
    for key, entry in flat.items():
        sub = _nested(key, entry)
        if sub and isinstance(doc.get(key), dict):
            yield from _objects(doc[key], sub, f"{path}.{key}".lstrip("."))


@given(data=st.data())
def test_cli_fuzz_one_config_fault_exits_2_naming_its_path(data):
    # a valid document with one fault at any depth: an unknown key, a
    # number's value of the wrong type, or a required key left out
    command = data.draw(st.sampled_from(["solve", "modulus", "experiment"]))
    if command == "experiment":
        name = data.draw(st.sampled_from(registered_scenarios()))
        entry = json.loads(json.dumps(default_config(name).to_dict()))
        keep = data.draw(st.sets(st.sampled_from(sorted(entry))))
        doc, table = {"schema": 1, **{k: entry[k] for k in keep},
                      "scenario": name}, _EXPERIMENT_DOC
    else:
        table = SOLVE_DOC if command == "solve" else MODULUS_DOC
        doc = _draw_doc(data.draw, table)
    faults = []
    for path, obj, flat in _objects(doc, table):
        faults.append((path, obj, "typo", 0))
        for key, (kind, default, *_) in flat.items():
            if key not in obj:
                continue
            if default == REQUIRED:
                faults.append((path, obj, key, KeyError))
            if kind in ("int", "float", "number", "float?"):
                faults += [(path, obj, key, bad) for bad in _NOT_NUMBERS
                           if bad is not None or not kind.endswith("?")]
    path, obj, key, bad = data.draw(st.sampled_from(faults))
    if bad is KeyError:
        del obj[key]
    else:
        obj[key] = bad
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config",
                         write_config(os.path.join(tmp, "c.json"), doc),
                         "--out", out])
        assert code == 2, (doc, err.getvalue())
        assert f"{path}.{key}".lstrip(".") in err.getvalue(), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if command != "experiment":
            assert not os.path.exists(out)


def test_cli_docstring_names_every_config_key():
    doc = freqlab.cli.__doc__
    tables = [MODULUS_DOC, SOLVE_DOC, SWEEP_DOC, SCENARIO_KEYS,
              *_SPEC_TABLES.values()]
    missing = set()
    while tables:
        for key, entry in tables.pop().items():
            if not re.search(rf"\b{key}\b", doc):
                missing.add(key)
            if isinstance(entry, dict):  # kinds, then their keys
                tables += list(entry.values())
                missing |= {k for k in entry
                            if not re.search(rf"\b{k}\b", doc)}
            elif isinstance(entry[0], dict):  # a nested object's keys
                tables.append(entry[0])
    assert not missing


def test_cli_usage_errors():
    assert main([]) == 2
    assert main(["--version"]) == 0
    assert main(["solve"]) == 2


# -- frequency profile consistency across interfaces -----------------------


def test_cli_profile_matches_direct_solve(tmp_path):
    cfg_doc = {
        "schema": 1,
        "grid": {"n_r": 33, "n_theta": 64},
        "boundary": {"kind": "harmonic", "degree": 3},
    }
    cfg = write_config(tmp_path / "s.json", cfg_doc)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    grid_file, values = read_grid(os.path.join(out, "solution.grid"))

    grid = PolarGrid.disk(33, 64)
    from freqlab.coefficients import CoefficientField
    f = CoefficientField.identity(2)

    def g(pts):
        pts = np.asarray(pts, dtype=float)
        z = pts[..., 0] + 1j * pts[..., 1]
        return np.real(z ** 3)

    u = solve_dirichlet(f, 1.0, g, grid)
    np.testing.assert_allclose(values, u.values, rtol=1e-12, atol=1e-12)
