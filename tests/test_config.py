"""Parsing and validation of the flat key=value run configuration."""

import re

import pytest

from fracp.config import (GridSettings, RunConfig, SolverSettings,
                          parse_config, read_config)
from fracp.errors import ConfigError
from fracp.grid import grid_difference, make_radial_grid

REQUIRED = """\
params.N = 3
params.s = 0.5
params.p = 2.5
params.gamma = 0.5
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(REQUIRED)
    assert isinstance(cfg, RunConfig)
    assert cfg.params.N == 3 and cfg.params.p == 2.5
    # alpha defaults to the midpoint of the open admissible window
    mid = cfg.params.gamma * cfg.params.beta_star + 0.5 * 0.5 * 2.5
    assert cfg.params.alpha == pytest.approx(mid, rel=0, abs=0)
    assert cfg.params.r_exp is None
    assert cfg.kappa == 0.0
    assert cfg.grid == GridSettings(r_max=64.0, nodes=256)
    assert cfg.solver == SolverSettings(tol=1e-8, schedule_max_n=128)
    assert cfg.output_dir == "out"
    assert cfg.seed == 20240817


def test_full_example_accepted():
    cfg = parse_config(REQUIRED + """\
params.r_exp = 1.2
params.alpha = none
kappa = 0.5
grid.nodes = 128
solver.tol = 1e-9
output_dir = results
seed = 11
""")
    assert cfg.params.r_exp == 1.2
    assert cfg.kappa == 0.5
    assert cfg.grid.nodes == 128
    assert cfg.solver.tol == 1e-9
    assert cfg.output_dir == "results"
    assert cfg.seed == 11


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# run setup\n\n" + REQUIRED + "\n# end\n")
    assert cfg.params.N == 3


def test_growth_exponent_window_empty_at_p2():
    # at p = 2 the interval 1 < r < p-1 is empty, so any r_exp is out
    with pytest.raises(ConfigError, match=r"1 < r < p-1.*\(H_f\)"):
        parse_config("params.N = 3\nparams.s = 0.5\nparams.p = 2\n"
                     "params.gamma = 0.5\nparams.r_exp = 1.5\n")


def test_alpha_on_window_edge_rejected():
    # the admissible alpha window is open; its lower edge gamma*beta_star
    # (here 0.5 * 2 = 1) must be refused
    with pytest.raises(ConfigError, match=r"\(H_a\)"):
        parse_config("params.N = 3\nparams.s = 0.5\nparams.p = 2\n"
                     "params.gamma = 0.5\nparams.alpha = 1.0\n")


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match=r"line 5: unknown key 'grid.hmax'"):
        parse_config(REQUIRED + "grid.hmax = 0.1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match=r"line 5: duplicate key"):
        parse_config(REQUIRED + "params.N = 4\n")


def test_line_without_assignment_rejected():
    with pytest.raises(ConfigError, match=r"line 1: expected 'key = value'"):
        parse_config("params.N 3\n")


def test_missing_required_lists_both_sides():
    with pytest.raises(ConfigError) as err:
        parse_config("params.N = 3\nparams.s = 0.5\n")
    msg = str(err.value)
    assert "params.p" in msg and "params.gamma" in msg
    assert "defaults would cover" in msg
    assert "grid.nodes=256" in msg


def test_bad_literal_reports_line_and_key():
    with pytest.raises(ConfigError, match=r"line 1: params.N = 'three'"):
        parse_config("params.N = three\n")
    with pytest.raises(ConfigError, match=r"not an integer"):
        parse_config(REQUIRED.replace("params.N = 3", "params.N = 3.5"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", [
    "params.s", "params.p", "params.gamma", "params.alpha", "params.c_a",
    "params.r_exp", "kappa", "grid.r_max", "solver.tol",
    # integer keys parse through the same float literal
    "params.N", "grid.nodes", "quad.nodes", "solver.schedule_max_n", "seed"])
def test_non_finite_value_reports_line_and_key(key, value):
    # a comparison with nan is always False, so nan and inf would slip
    # through every range check after parsing (solver.tol = inf solved
    # nothing and reported convergence); the parser refuses them
    lines = [line for line in REQUIRED.splitlines()
             if line.split("=")[0].strip() != key] + [f"{key} = {value}"]
    with pytest.raises(ConfigError, match=(
            rf"^line {len(lines)}: {re.escape(key)} = '{value}': "
            rf"{value} is not a finite number$")):
        parse_config("\n".join(lines) + "\n")


def test_kappa_bounds_and_growth_requirement():
    with pytest.raises(ConfigError, match="0 <= kappa <= 1"):
        parse_config(REQUIRED + "kappa = 1.5\n")
    with pytest.raises(ConfigError, match=r"kappa > 0 needs params.r_exp"):
        parse_config(REQUIRED + "kappa = 0.5\n")
    # kappa = 0 never needs the growth exponent
    assert parse_config(REQUIRED + "kappa = 0\n").kappa == 0.0


@pytest.mark.parametrize("line,fragment", [
    ("grid.r_max = 4", "r_max >= 8"),
    ("grid.nodes = 8", "at least 16"),
    # a config fixes one grid: its grading is not a setting
    ("grid.grading = 1.5", "unknown key"),
    ("quad.nodes = 2", "too few"),
    # the fixed quadrature rule has no tolerance and no refinement rounds
    ("quad.tol = 0", "unknown key"),
    ("quad.max_refinements = 12", "unknown key"),
    ("solver.tol = -1e-8", "must be > 0"),
    ("solver.max_iter = 0", "unknown key"),
    ("solver.schedule_max_n = 0", "must be >= 1"),
    # numpy's generator refuses a negative seed with a traceback
    ("seed = -1", "seed=-1: must be >= 0"),
])
def test_settings_sanity(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(REQUIRED + line + "\n")


def test_build_grid_defaults_to_capacitary_rate():
    cfg = parse_config(REQUIRED + "grid.nodes = 32\n")
    g = cfg.build_grid()
    assert g.tail_exponent == pytest.approx(cfg.params.beta_star)
    assert g.R_max == 64.0
    assert g.nodes.size == 33  # M interior steps plus the origin node
    # the config's one grid: grading 1.03 with its node nearest 1 on 1
    ref = make_radial_grid(tail_exponent=cfg.params.beta_star, R_max=64.0,
                           M=32, grading=1.03)
    assert grid_difference(g, ref) is None
    assert 1.0 in g.nodes


def test_schedule_doubles_up_to_cap():
    cfg = parse_config(REQUIRED + "solver.schedule_max_n = 16\n")
    assert cfg.schedule() == [1, 2, 4, 8, 16]
    assert parse_config(REQUIRED).schedule()[-1] == 128


def test_read_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        read_config(str(tmp_path / "nope.cfg"))
    path = tmp_path / "run.cfg"
    path.write_text(REQUIRED)
    assert read_config(str(path)).params.p == 2.5
