"""End-to-end drives of the command line on a small, fast configuration.

Every test calls ``main(argv)`` in process and checks exit codes plus the
files left behind, so the whole surface (config reading, dispatch, CSV
round trips, exit-code contract) is exercised without subprocess cost.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import fracp
from fracp.analysis import read_solution_csv, write_solution_csv
from fracp.cli import main
from fracp.config import parse_config
from fracp.errors import UsageError
from fracp.grid import RadialFunction

SMALL_CFG = """\
params.N = 3
params.s = 0.5
params.p = 2.5
params.gamma = 0.5
params.r_exp = 1.2
grid.r_max = 64
grid.nodes = 48
grid.grading = 1.06
solver.tol = 1e-8
solver.schedule_max_n = 16
kappa = 0.5
output_dir = {out}
seed = 7
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Config file plus one solve-singular / solve-full run to seed CSVs."""
    base = tmp_path_factory.mktemp("cli")
    out = base / "out"
    cfg = base / "run.cfg"
    cfg.write_text(SMALL_CFG.format(out=out))
    assert main(["solve-singular", "--config", str(cfg)]) == 0
    assert main(["solve-full", "--config", str(cfg), "--kappa", "0.5"]) == 0
    return {"cfg": str(cfg), "out": str(out), "base": base}


def test_kernel_table_sweep(workdir):
    out = os.path.join(workdir["out"], "sweep")
    assert main(["kernel-table", "--config", workdir["cfg"],
                 "--out", out, "--steps", "7"]) == 0
    name = "cbeta_N3_s0.5_p2.5.csv"
    rows = np.loadtxt(os.path.join(out, name), delimiter=",", skiprows=3)
    beta, c = rows[:, 0], rows[:, 1]
    beta_star = (3.0 - 0.5 * 2.5) / 1.5
    k = int(np.argmin(np.abs(c)))
    # the sweep always contains the zero crossing, and it is genuinely zero
    assert beta[k] == pytest.approx(beta_star, abs=1e-12)
    assert abs(c[k]) <= 1e-8 * np.abs(c).max()
    # the constant changes sign across beta_star
    assert c[beta < beta_star].min() > 0.0 > c[beta > beta_star].max()


def test_kernel_table_range_must_fit_window(workdir):
    assert main(["kernel-table", "--config", workdir["cfg"],
                 "--beta-min", "0.1", "--beta-max", "1.0"]) == 2


def test_capacitary_run(workdir, capsys):
    out = os.path.join(workdir["out"], "cap")
    assert main(["capacitary", "--config", workdir["cfg"],
                 "--out", out, "--R", "1"]) == 0
    text = capsys.readouterr().out
    assert text.count("PASS") == 3 and "FAIL" not in text
    u, meta = read_solution_csv(os.path.join(out, "capacitary_R1.csv"))
    assert meta["converged"] is True
    assert float(u.values.max()) == pytest.approx(1.0)


def test_capacitary_unconverged_exits_3(workdir, tmp_path):
    cfg = tmp_path / "strict.cfg"
    cfg.write_text(SMALL_CFG.format(out=tmp_path / "out").replace(
        "solver.tol = 1e-8", "solver.tol = 1e-30"))
    assert main(["capacitary", "--config", str(cfg), "--R", "1"]) == 3
    _, meta = read_solution_csv(str(tmp_path / "out" / "capacitary_R1.csv"))
    assert meta["converged"] is False


def test_smallest_box_runs_capacitary_and_plotdata(tmp_path, capsys):
    # r_max = 8 is the smallest box the config accepts; the decay window
    # [R_max/8, R_max/2] = [1, 4] then starts on the anchor node at r = 1
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CFG.format(out=tmp_path / "out").replace(
        "grid.r_max = 64", "grid.r_max = 8"))
    # on a box this small the tail exponent may miss its 5 % bound (exit
    # 1), but the checks must run
    assert main(["capacitary", "--config", str(cfg), "--R", "1"]) in (0, 1)
    assert capsys.readouterr().out.count("check capacitary-") == 3
    assert main(["solve-singular", "--config", str(cfg)]) == 0
    assert main(["solve-full", "--config", str(cfg)]) == 0
    assert main(["plotdata", "--config", str(cfg)]) == 0
    with open(tmp_path / "out" / "loglog.csv") as fh:
        assert fh.readline() == "# log-log decay data window=[1.0,4.0]\n"


def test_capacitary_radius_validated(workdir):
    assert main(["capacitary", "--config", workdir["cfg"],
                 "--out", os.path.join(workdir["out"], "caperr"),
                 "--R", "20"]) == 2


def test_singular_csv_roundtrip(workdir):
    u, meta = read_solution_csv(os.path.join(workdir["out"], "u_bar.csv"))
    assert u.values.min() > 0.0
    assert float(meta["gamma"]) == 0.5
    # each regularization level hit stationarity, so the stored defect is
    # tiny, yet the level-to-level Cauchy test had not settled by n=16 and
    # the flag records exactly that
    assert meta["converged"] is False
    rows = np.loadtxt(os.path.join(workdir["out"], "u_bar.csv"),
                      delimiter=",", skiprows=3)
    assert np.abs(rows[:, 4]).max() <= 1e-8
    assert rows[:, 3].min() > 0.0


def test_settled_continuation_writes_the_level_it_returns(tmp_path, capsys):
    # README parameters at a loose tolerance: successive levels agree
    # within tol at n = 512, long before the schedule ends at 4096, and
    # the stored residual must be that of the level actually returned
    cfg = tmp_path / "run.cfg"
    cfg.write_text("params.N = 3\nparams.s = 0.5\nparams.p = 2.5\n"
                   "params.gamma = 0.5\nparams.r_exp = 1.2\n"
                   "grid.nodes = 64\nsolver.tol = 1e-3\n"
                   "solver.schedule_max_n = 4096\n"
                   f"output_dir = {tmp_path / 'out'}\n")
    assert main(["solve-singular", "--config", str(cfg)]) == 0
    assert "n=4096 " not in capsys.readouterr().out
    path = os.path.join(tmp_path, "out", "u_bar.csv")
    _, meta = read_solution_csv(path)
    assert meta["converged"] is True
    rows = np.loadtxt(path, delimiter=",", skiprows=3)
    assert np.abs(rows[:, 4]).max() <= 1e-3


def test_full_csv_dominates_singular(workdir):
    u_bar, _ = read_solution_csv(os.path.join(workdir["out"], "u_bar.csv"))
    u_t, meta = read_solution_csv(os.path.join(workdir["out"],
                                               "u_tilde.csv"))
    assert meta["converged"] is True
    scale = float(u_bar.values.max())
    assert float((u_t.values - u_bar.values).min()) >= -1e-8 * scale
    rows = np.loadtxt(os.path.join(workdir["out"], "u_tilde.csv"),
                      delimiter=",", skiprows=3)
    assert np.all(np.isfinite(rows))
    assert np.abs(rows[:, 4]).max() <= 1e-8, "stored residual is the defect"
    assert rows[:, 3].min() > 0.0, "truncated reaction stays positive"


def test_solve_full_kappa_flag_validated(workdir):
    assert main(["solve-full", "--config", workdir["cfg"],
                 "--kappa", "1.5"]) == 2


def test_plotdata_outputs(workdir):
    assert main(["plotdata", "--config", workdir["cfg"]]) == 0
    loglog = os.path.join(workdir["out"], "loglog.csv")
    with open(loglog) as fh:
        header = fh.readline()
        assert header.startswith("# log-log decay data window=")
        assert fh.readline().strip() == "log_r,log_u_bar,log_u_tilde"
    data = np.loadtxt(loglog, delimiter=",", skiprows=2)
    assert np.all(np.isfinite(data))
    assert np.all(np.diff(data[:, 0]) > 0.0)
    assert math.exp(data[0, 0]) >= 64.0 / 8.0 - 1e-12

    profiles = os.path.join(workdir["out"], "profiles.csv")
    rows = np.loadtxt(profiles, delimiter=",", skiprows=2)
    r, ub, ut, lo, hi = rows.T
    assert np.all(r > 0.0) and np.all(lo > 0.0) and np.all(hi > 0.0)
    # the envelopes are anchored to the fitted tail amplitudes, so in the
    # fit window they really do sandwich the computed profile
    sel = (r >= 8.0) & (r <= 32.0)
    assert np.all(ub[sel] >= lo[sel] * (1.0 - 1e-12))
    assert np.all(ub[sel] <= hi[sel] * (1.0 + 1e-12))


def test_plotdata_exact_power_law_gives_exact_line(workdir, tmp_path):
    cfg = parse_config(SMALL_CFG.format(out=tmp_path))
    grid = cfg.build_grid()
    bstar = cfg.params.beta_star
    r = grid.nodes
    vals = np.empty_like(r)
    vals[1:] = 3.0 * r[1:] ** -bstar
    vals[0] = vals[1]
    zeros = np.zeros_like(vals)
    out = tmp_path / "exact"
    out.mkdir()
    for name, amp in (("u_bar", 1.0), ("u_tilde", 2.0)):
        write_solution_csv(RadialFunction(grid, amp * vals), cfg.params,
                           str(out / (name + ".csv")), rhs=zeros,
                           residual=zeros, converged=True)
    assert main(["plotdata", "--config", workdir["cfg"],
                 "--out", str(out)]) == 0
    data = np.loadtxt(out / "loglog.csv", delimiter=",", skiprows=2)
    x, yb, yt = data.T
    coef = np.polyfit(x, yb, 1)
    assert coef[0] == pytest.approx(-bstar, abs=1e-12)
    assert np.abs(np.polyval(coef, x) - yb).max() <= 1e-12
    assert yt - yb == pytest.approx(math.log(2.0), abs=1e-12)
    # with a pure power profile the lower envelope IS the profile
    rows = np.loadtxt(out / "profiles.csv", delimiter=",", skiprows=2)
    np.testing.assert_allclose(rows[:, 3], rows[:, 1], rtol=1e-12)


def test_plotdata_requires_both_solutions(workdir, tmp_path):
    out = tmp_path / "partial"
    out.mkdir()
    shutil.copy(os.path.join(workdir["out"], "u_bar.csv"), out)
    assert main(["plotdata", "--config", workdir["cfg"],
                 "--out", str(out)]) == 2


def test_edited_solution_file_rejected(workdir, tmp_path):
    src = os.path.join(workdir["out"], "u_bar.csv")
    lines = open(src).read().splitlines()
    _, rest = lines[4].split(",", 1)
    lines[4] = "0.25," + rest  # nudge one node off the stored grid
    bad = tmp_path / "u_bar.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(UsageError, match="edited"):
        read_solution_csv(str(bad))


def test_verify_exit_matches_report(workdir):
    out = os.path.join(workdir["out"], "verify")
    rc = main(["verify", "--config", workdir["cfg"], "--out", out])
    report = json.load(open(os.path.join(out, "report.json")))
    assert rc == (0 if all(c["pass"] for c in report["checks"]) else 1)
    assert len(report["checks"]) >= 25


def test_missing_config_is_usage_error(tmp_path):
    assert main(["solve-singular", "--config",
                 str(tmp_path / "absent.cfg")]) == 2


def _scipy_modules_after(code: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after running code."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (code + "\nimport sys\nprint('scipy:', *sorted(m for m in "
             "sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return out.splitlines()[-1].split()[1:]


def test_cold_start_skips_heavy_scipy_modules():
    # every subcommand is one process, so the import of the entry point is
    # paid each time: it loads no scipy module at all.  The solver loads
    # scipy.linalg for the Newton step's Cholesky factorization, at import,
    # and nothing of scipy.special
    assert _scipy_modules_after("import fracp.cli") == []
    loaded = _scipy_modules_after("import fracp.solver")
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith("scipy.special")]


def test_kernel_table_and_plotdata_processes_load_no_scipy(workdir,
                                                           tmp_path):
    # neither subcommand factors a matrix, so neither loads scipy
    for name in ("u_bar.csv", "u_tilde.csv"):
        shutil.copy(os.path.join(workdir["out"], name), tmp_path)
    for argv in (["kernel-table", "--steps", "3"], ["plotdata"]):
        argv += ["--config", workdir["cfg"], "--out", str(tmp_path)]
        code = ("from fracp.cli import main\n"
                f"assert main({argv!r}) == 0")
        assert _scipy_modules_after(code) == [], argv[0]
