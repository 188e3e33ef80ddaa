"""End-to-end drives of the command line on a small, fast configuration.

Every test calls ``main(argv)`` in process and checks exit codes plus the
files left behind, so the whole surface (config reading, dispatch, CSV
round trips, exit-code contract) is exercised without subprocess cost.
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import zlib

import numpy as np
import pytest

import fracp
from fracp.analysis import grid_crc, read_solution_csv, write_solution_csv
from fracp.cli import main
from fracp.config import parse_config
from fracp.errors import UsageError
from fracp.grid import RadialFunction, make_radial_grid

SMALL_CFG = """\
params.N = 3
params.s = 0.5
params.p = 2.5
params.gamma = 0.5
params.r_exp = 1.2
grid.r_max = 64
grid.nodes = 48
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


def test_quad_nodes_reaches_both_rules(tmp_path, monkeypatch):
    # quad.nodes is the per-panel order of C(beta)'s rule, 105 panels at
    # 32 + 64 nodes each, and of the tail self-energy's rule; the pair
    # weights and the tail blocks do not read it
    import fracp.operator as op
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG.format(out=out) + "quad.nodes = 32\n")
    assert main(["kernel-table", "--config", str(cfg), "--steps", "3"]) == 0
    rows = np.loadtxt(out / "cbeta_N3_s0.5_p2.5.csv", delimiter=",",
                      skiprows=3)
    assert len(rows) >= 3 and set(rows[:, 3]) == {10080.0}

    seen = []
    real = op.integrate

    def recording(f, points, nodes, **kw):
        seen.append(nodes)
        return real(f, points, nodes, **kw)

    monkeypatch.setattr(op, "integrate", recording)
    run = parse_config(cfg.read_text())
    grid = run.build_grid()
    K32 = op.assemble(grid, run.params, run.quad)
    K24 = op.assemble(grid, run.params)
    assert seen == [32, 24]
    assert np.array_equal(K32.weights, K24.weights)
    for blk, ref in zip(K32.tail, K24.tail, strict=True):
        assert blk.rows == ref.rows
        assert np.array_equal(blk.W, ref.W)


def test_kernel_table_range_must_fit_window(workdir):
    assert main(["kernel-table", "--config", workdir["cfg"],
                 "--beta-min", "0.1", "--beta-max", "1.0"]) == 2


def test_kernel_table_at_small_s_exits_0(tmp_path):
    # the default sweep at (3, 0.3, 2) passes beta where
    # N - sp - beta (p - 1) is near 0, so rho^{N - sp - beta (p - 1)}
    # varies over all of (0, 1e-6); every row must meet the 1e-9 target
    cfg = tmp_path / "run.cfg"
    cfg.write_text("params.N = 3\nparams.s = 0.3\nparams.p = 2\n"
                   "params.gamma = 0.5\n")
    out = tmp_path / "out"
    assert main(["kernel-table", "--config", str(cfg), "--out",
                 str(out)]) == 0
    rows = np.loadtxt(out / "cbeta_N3_s0.3_p2.csv", delimiter=",",
                      skiprows=4)
    assert np.all(rows[:, 2] <= 1e-9)
    assert np.all(rows[:, 3] == 7560)


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


def test_capacitary_solves_on_the_config_grid(workdir, tmp_path):
    # r = 2 is no node of the grid: the step keeps the config's one grid
    # and pins its nodes r <= 2, so the profile lies on u_bar.csv's grid
    assert main(["capacitary", "--config", workdir["cfg"],
                 "--out", str(tmp_path), "--R", "2"]) == 0
    u, meta = read_solution_csv(str(tmp_path / "capacitary_R2.csv"))
    _, bar = read_solution_csv(os.path.join(workdir["out"], "u_bar.csv"))
    assert meta["grid_hash"] == bar["grid_hash"]
    r = u.grid.nodes
    assert 2.0 not in r
    np.testing.assert_array_equal(u.values[r <= 2.0], 1.0)
    assert np.all(u.values[r > 2.0] < 1.0)


def test_grading_key_is_refused(tmp_path, capsys):
    # a config fixes one grid, so its grading is no setting: every step
    # refuses the key before it computes anything
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG.format(out=tmp_path / "out")
                   + "grid.grading = 1.03\n")
    for argv in (["kernel-table"], ["capacitary", "--R", "1"],
                 ["solve-singular"], ["verify"]):
        assert main(argv + ["--config", str(cfg)]) == 2, argv[0]
        assert "unknown key 'grid.grading'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_capacitary_radius_validated(workdir):
    # r_max/4 = 16 leaves no room for the decay; the first node after the
    # origin of this grid lies at 0.61, so r = 0.3 would pin the origin alone
    for R in ("20", "0.3"):
        assert main(["capacitary", "--config", workdir["cfg"],
                     "--out", os.path.join(workdir["out"], "caperr"),
                     "--R", R]) == 2, R


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


def test_solve_full_writes_what_the_library_path_writes(workdir, tmp_path):
    # the u_tilde.csv that solve-full built on the u_bar.csv read from disk
    # is byte for byte the one of the in-process chain solve_pure_singular
    # -> solve_full, since a profile round-trips its floats through repr
    import fracp.solver as sv
    from fracp.operator import assemble
    cfg = parse_config(SMALL_CFG.format(out=tmp_path))
    params, tol = cfg.params, cfg.solver.tol
    grid = cfg.build_grid()
    K = assemble(grid, params, cfg.quad)
    u_bar, _ = sv.solve_pure_singular(params, grid, K, cfg.schedule(),
                                      tol=tol)
    u_t, rep = sv.solve_full(params, grid, K, u_bar, 0.5, tol=tol)
    prob = sv.TruncatedProblem(params, grid, K, u_bar, 0.5)
    path = tmp_path / "u_tilde.csv"
    write_solution_csv(u_t, params, str(path),
                       rhs=prob.reaction(u_t.values),
                       residual=prob.at(u_t.values).gradient,
                       converged=rep.converged, solver=cfg.solver)
    with open(os.path.join(workdir["out"], "u_tilde.csv"), "rb") as fh:
        assert fh.read() == path.read_bytes()


def test_solve_full_runs_no_continuation(workdir, tmp_path, monkeypatch,
                                         capsys):
    # solve-full builds on the u_bar.csv solve-singular wrote: it solves no
    # regularized level and leaves that file as it found it
    import fracp.solver as sv

    def unreachable(*args, **kwargs):
        raise AssertionError("solve-full ran the continuation")

    monkeypatch.setattr(sv, "minimize_Jn", unreachable)
    monkeypatch.setattr(sv, "solve_pure_singular", unreachable)
    shutil.copy(os.path.join(workdir["out"], "u_bar.csv"), tmp_path)
    before = (tmp_path / "u_bar.csv").read_bytes()
    capsys.readouterr()
    assert main(["solve-full", "--config", workdir["cfg"], "--kappa", "0.5",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "u_bar.csv").read_bytes() == before
    assert (tmp_path / "u_tilde.csv").exists()
    first = capsys.readouterr().out.splitlines()[0]
    assert first == f"solve-full: u_bar <- {tmp_path / 'u_bar.csv'}"


def test_solve_full_without_u_bar_exits_2(workdir, tmp_path, capsys):
    capsys.readouterr()
    assert main(["solve-full", "--config", workdir["cfg"],
                 "--out", str(tmp_path)]) == 2
    assert "run solve-singular first" in capsys.readouterr().err
    assert not (tmp_path / "u_tilde.csv").exists()


@pytest.mark.parametrize("edit, named", [
    (lambda text: text + "params.c_a = 2\n", "c_a="),
    (lambda text: text.replace("grid.nodes = 48", "grid.nodes = 40"),
     "another grid"),
    # a shorter continuation (M = 2) and a looser tolerance: the same
    # grid and parameters, so only the header's solver settings tell
    (lambda text: text.replace("solver.schedule_max_n = 16",
                               "solver.schedule_max_n = 2"),
     "solver.schedule_max_n=2 but the config says "
     "solver.schedule_max_n=16"),
    (lambda text: text.replace("solver.tol = 1e-8", "solver.tol = 1e-6"),
     "solver.tol=1e-06 but the config says solver.tol=1e-08"),
], ids=["c_a", "grid", "schedule_max_n", "tol"])
def test_inputs_of_another_run_are_refused(workdir, tmp_path, capsys, edit,
                                           named):
    # a u_bar.csv that solve-singular wrote under another config is refused
    # by both steps that read it, whatever else sits beside it
    other = tmp_path / "other.cfg"
    other.write_text(edit(SMALL_CFG.format(out=tmp_path)))
    assert main(["solve-singular", "--config", str(other)]) == 0
    capsys.readouterr()
    assert main(["solve-full", "--config", workdir["cfg"],
                 "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "u_tilde.csv").exists()
    shutil.copy(os.path.join(workdir["out"], "u_tilde.csv"), tmp_path)
    assert main(["plotdata", "--config", workdir["cfg"],
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (plotdata): u_bar.csv") and named in err


@pytest.mark.parametrize("edit, stored", [
    (lambda text: text.replace("params.r_exp = 1.2", "params.r_exp = 1.1"),
     "1.1"),
    # without a growth exponent the config needs kappa = 0
    (lambda text: text.replace("params.r_exp = 1.2\n", "")
     .replace("kappa = 0.5", "kappa = 0"), "None"),
], ids=["1.1", "None"])
def test_plotdata_refuses_a_u_tilde_of_another_r_exp(workdir, tmp_path,
                                                     capsys, edit, stored):
    # the growth term kappa t^r_exp enters the truncated problem only: a
    # u_tilde.csv solved under another r_exp is refused, and the u_bar.csv
    # beside it, solved under that r_exp too, is not
    other = tmp_path / "other.cfg"
    other.write_text(edit(SMALL_CFG.format(out=tmp_path)))
    assert main(["solve-singular", "--config", str(other)]) == 0
    assert main(["solve-full", "--config", str(other)]) == 0
    capsys.readouterr()
    assert main(["plotdata", "--config", workdir["cfg"],
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error (plotdata): u_tilde.csv was computed at r_exp={stored} but "
        "the config says r_exp=1.2; run solve-full again")
    assert not (tmp_path / "loglog.csv").exists()
    shutil.copy(os.path.join(workdir["out"], "u_tilde.csv"), tmp_path)
    assert main(["plotdata", "--config", workdir["cfg"],
                 "--out", str(tmp_path)]) == 0


def test_closed_stdout_costs_no_file_and_no_exit_code(workdir, tmp_path):
    # ``fracp solve-singular ... | head -1`` with unbuffered output: the
    # reader closes the pipe after the first line, before the level lines;
    # the step still writes u_bar.csv, byte for byte, and exits 0 without
    # a BrokenPipeError traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracp.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "fracp.cli", "solve-singular",
         "--config", workdir["cfg"], "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0, err
    assert first.startswith(b"solve-singular: continuation over n = ")
    assert err == b""
    with open(os.path.join(workdir["out"], "u_bar.csv"), "rb") as fh:
        assert (tmp_path / "u_bar.csv").read_bytes() == fh.read()


def test_solve_full_refuses_a_non_stationary_u_bar(workdir, tmp_path,
                                                   capsys):
    # the stored residual is the defect of u_bar's own level; the grid CRC
    # covers only the nodes and the tail exponent, so the edited file still
    # reads, and solve-full gates on the residual it finds there
    lines = open(os.path.join(workdir["out"], "u_bar.csv")).read() \
        .splitlines()
    fields = lines[10].split(",")
    lines[10] = ",".join(fields[:4] + ["0.001"])
    (tmp_path / "u_bar.csv").write_text("\n".join(lines) + "\n")
    _, meta = read_solution_csv(str(tmp_path / "u_bar.csv"))
    assert meta["residual_norm"] == 1e-3
    capsys.readouterr()
    assert main(["solve-full", "--config", workdir["cfg"],
                 "--out", str(tmp_path)]) == 3
    assert "stationarity" in capsys.readouterr().err
    assert not (tmp_path / "u_tilde.csv").exists()


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
                           residual=zeros, converged=True, solver=cfg.solver)
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


def test_grid_hash_sensitivity():
    # the grid_hash= field is the CRC-32 of the nodes, then the float64
    # tail exponent, as 8 hex digits
    g1 = make_radial_grid(tail_exponent=2.0, M=32, R_max=16.0)
    g2 = make_radial_grid(tail_exponent=2.0, M=32, R_max=16.0)
    g3 = make_radial_grid(tail_exponent=1.5, M=32, R_max=16.0)
    assert grid_crc(g1) == grid_crc(g2)
    assert grid_crc(g1) != grid_crc(g3)
    assert len(grid_crc(g1)) == 8
    assert int(grid_crc(g3), 16) == zlib.crc32(
        g3.nodes.tobytes() + np.float64(1.5).tobytes())


def _rewrite_u_bar(workdir, tmp_path, stamp):
    """A copy of u_bar.csv with its r column moved or kept, and its
    grid_hash= field replaced by ``stamp(nodes, tail_exponent)``."""
    lines = open(os.path.join(workdir["out"], "u_bar.csv")).read() \
        .splitlines()
    u, meta = read_solution_csv(os.path.join(workdir["out"], "u_bar.csv"))
    nodes = u.grid.nodes.copy()
    tail = float(meta["tail_exponent"])
    new = stamp(nodes, tail)
    for k, r in enumerate(nodes.tolist()):
        _, rest = lines[3 + k].split(",", 1)
        lines[3 + k] = f"{r!r},{rest}"
    lines[1] = lines[1].replace(f"grid_hash={meta['grid_hash']} ",
                                f"grid_hash={new} ")
    (tmp_path / "u_bar.csv").write_text("\n".join(lines) + "\n")


def test_solve_full_refuses_a_u_bar_one_ulp_off_the_grid(workdir, tmp_path,
                                                         capsys):
    # r column moved by one ulp at one interior node, CRC rewritten to
    # match: the file reads, and the exact grid test refuses it
    def stamp(nodes, tail):
        nodes[9] = np.nextafter(nodes[9], np.inf)
        crc = zlib.crc32(nodes.tobytes() + np.float64(tail).tobytes())
        return f"{crc:08x}"
    _rewrite_u_bar(workdir, tmp_path, stamp)
    read_solution_csv(str(tmp_path / "u_bar.csv"))
    capsys.readouterr()
    assert main(["solve-full", "--config", workdir["cfg"],
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (solve-full): u_bar.csv lies on another "
                          "grid than the config's (node 9 differs first: ")
    assert err.rstrip().endswith("; run solve-singular again")
    assert not (tmp_path / "u_tilde.csv").exists()


def test_solve_full_refuses_a_header_of_the_sha256_format(workdir, tmp_path,
                                                          capsys):
    # a u_bar.csv whose grid_hash= field is the 16-digit sha256 prefix an
    # earlier fracp wrote: exit 2, both causes named, no traceback
    def stamp(nodes, tail):
        return hashlib.sha256(nodes.tobytes()
                              + np.float64(tail).tobytes()).hexdigest()[:16]
    _rewrite_u_bar(workdir, tmp_path, stamp)
    capsys.readouterr()
    assert main(["solve-full", "--config", workdir["cfg"],
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error (solve-full): {tmp_path / 'u_bar.csv'}: ")
    assert ("the file was edited, or written by a fracp that recorded "
            "another grid hash; run solve-singular again") in err
    assert "Traceback" not in err
    assert not (tmp_path / "u_tilde.csv").exists()


def _drop_token(line, key):
    return " ".join(t for t in line.split(" ") if not t.startswith(key + "="))


@pytest.mark.parametrize("edit, named", [
    (lambda lines: [lines[0], _drop_token(lines[1], "tail_exponent")]
     + lines[2:], "tail_exponent="),
    (lambda lines: [_drop_token(lines[0], "p")] + lines[1:], "p="),
    (lambda lines: lines[:5] + [",".join(
        f if k != 1 else "abc" for k, f in enumerate(lines[5].split(",")))]
     + lines[6:], "line 6, field u"),
    (lambda lines: lines[:5] + [",".join(
        f if k != 4 else "abc" for k, f in enumerate(lines[5].split(",")))]
     + lines[6:], "line 6, field residual"),
    # the header of a file written before it carried the solver settings
    (lambda lines: [lines[0], _drop_token(_drop_token(
        lines[1], "solver.tol"), "solver.schedule_max_n")] + lines[2:],
     "solver.tol="),
], ids=["no-tail-exponent", "no-p", "bad-u", "bad-residual",
        "no-solver-settings"])
def test_malformed_solution_file_is_a_usage_error(workdir, tmp_path, capsys,
                                                  edit, named):
    # a hand-edited u_bar.csv is bad input: exit 2 with a message naming
    # the file and the field, not a traceback
    for name in ("u_bar.csv", "u_tilde.csv"):
        shutil.copy(os.path.join(workdir["out"], name), tmp_path)
    path = tmp_path / "u_bar.csv"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert main(["plotdata", "--config", workdir["cfg"],
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (plotdata): ")
    assert str(path) in err and named in err


def _nan_u_on_line_6(lines):
    fields = lines[5].split(",")
    fields[1] = "nan"
    return lines[:5] + [",".join(fields)] + lines[6:]


@pytest.mark.parametrize("step, name, edit, named", [
    ("solve-full", "u_bar.csv", _nan_u_on_line_6, "line 6, field u"),
    ("solve-full", "u_bar.csv",
     lambda lines: [lines[0].replace(" s=0.5 ", " s=nan ")] + lines[1:],
     "header field s"),
    ("plotdata", "u_tilde.csv", _nan_u_on_line_6, "line 6, field u"),
], ids=["solve-full-nan-u", "solve-full-nan-s", "plotdata-nan-u"])
def test_non_finite_solution_entry_is_a_usage_error(workdir, tmp_path, capsys,
                                                    step, name, edit, named):
    # float() reads nan, and every comparison with it is False: a nan u
    # reached the Newton system as an uncaught ValueError, and s=nan
    # passed the header check; both are bad input, exit 2, no new file
    inputs = ["u_bar.csv"] + (["u_tilde.csv"] if step == "plotdata" else [])
    for f in inputs:
        shutil.copy(os.path.join(workdir["out"], f), tmp_path)
    path = tmp_path / name
    text = path.read_text()
    edited = "\n".join(edit(text.splitlines())) + "\n"
    assert edited != text
    path.write_text(edited)
    capsys.readouterr()
    assert main([step, "--config", workdir["cfg"], "--out", str(tmp_path),
                 *(["--kappa", "0.5"] if step == "solve-full" else [])]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error ({step}): ")
    assert "Traceback" not in err
    assert str(path) in err and named in err
    assert sorted(os.listdir(tmp_path)) == sorted(inputs)


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    # seed = -1 used to pass the config and crash numpy's generator
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG.format(out=tmp_path / "out").replace(
        "seed = 7", "seed = -1"))
    capsys.readouterr()
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (verify): ") and "seed=-1" in err
    assert not (tmp_path / "out").exists()


def test_verify_exit_matches_report(workdir):
    out = os.path.join(workdir["out"], "verify")
    rc = main(["verify", "--config", workdir["cfg"], "--out", out])
    report = json.load(open(os.path.join(out, "report.json")))
    assert rc == (0 if all(c["pass"] for c in report["checks"]) else 1)
    assert len(report["checks"]) >= 25


def test_missing_config_is_usage_error(tmp_path):
    assert main(["solve-singular", "--config",
                 str(tmp_path / "absent.cfg")]) == 2


def test_non_finite_setting_is_a_usage_error(tmp_path, capsys):
    # solver.tol = inf used to pass validation: zero Newton iterations and
    # a u_bar.csv marked converged
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG.format(out=out).replace("solver.tol = 1e-8",
                                                     "solver.tol = inf"))
    assert main(["solve-singular", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "line 8: solver.tol = 'inf'" in err
    assert not out.exists()


def _modules_after(code: str, *packages: str) -> list[str]:
    """The modules of ``packages`` (each a package or one of its
    submodules) that a fresh interpreter holds after running code."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (code + f"\nimport sys\npackages = {packages!r}\n"
             "print('modules:', *sorted(m for m in sys.modules if any("
             "m == p or m.startswith(p + '.') for p in packages)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return out.splitlines()[-1].split()[1:]


# the packages a CLI process is checked for: scipy, and hashlib with its
# OpenSSL extension module
FOOTPRINT = ("scipy", "hashlib", "_hashlib")


def test_cold_start_skips_heavy_scipy_modules():
    # every subcommand is one process, so the import of the entry point is
    # paid each time: it loads no scipy module at all.  The solver loads
    # scipy's compiled LAPACK wrappers for the Newton step's Cholesky
    # factorization, at import, by file: not the scipy or scipy.linalg
    # packages, nor anything of scipy._lib or scipy.special.  Neither
    # loads hashlib, whose import maps OpenSSL's libcrypto
    assert _modules_after("import fracp.cli", *FOOTPRINT) == []
    assert _modules_after("import fracp.solver", *FOOTPRINT) == [
        "scipy.linalg._flapack"]


def test_assembly_and_checks_leave_numpy_ma_and_polynomial_unloaded():
    # numpy imports numpy.polynomial (np.polynomial.legendre.leggauss) and
    # numpy.ma (np.median) on first use, which a fresh process pays in
    # milliseconds: fracp.quadrature makes every Gauss rule itself, and
    # the battery's uniform bound takes its median from sorted energies
    code = (
        "from fracp.analysis import uniform_bound_check\n"
        "from fracp.config import parse_config\n"
        "from fracp.grid import RadialFunction\n"
        "from fracp.kernel import power_profile_constant\n"
        "from fracp.operator import assemble\n"
        "cfg = parse_config('params.N = 3\\nparams.s = 0.5\\n"
        "params.p = 2.5\\nparams.gamma = 0.5\\ngrid.nodes = 64\\n')\n"
        "grid = cfg.build_grid()\n"
        "power_profile_constant(cfg.params.beta_star, cfg.params, cfg.quad)\n"
        "K = assemble(grid, cfg.params, cfg.quad)\n"
        "u = RadialFunction(grid, (1.0 + grid.nodes ** 2) ** -1.0)\n"
        "assert uniform_bound_check([u, u], K).passed\n")
    assert _modules_after(code, "numpy.ma", "numpy.polynomial") == []


def _subcommand_modules(argv: list[str]) -> list[str]:
    code = f"from fracp.cli import main\nassert main({argv!r}) == 0"
    return _modules_after(code, *FOOTPRINT)


def test_kernel_table_and_plotdata_processes_load_no_scipy(workdir,
                                                           tmp_path):
    # neither subcommand factors a matrix, so neither loads scipy, and
    # neither loads hashlib
    for name in ("u_bar.csv", "u_tilde.csv"):
        shutil.copy(os.path.join(workdir["out"], name), tmp_path)
    for argv in (["kernel-table", "--steps", "3"], ["plotdata"]):
        argv += ["--config", workdir["cfg"], "--out", str(tmp_path)]
        assert _subcommand_modules(argv) == [], argv[0]


def test_solving_processes_load_only_the_lapack_wrappers(workdir, tmp_path):
    # the three solving subcommands, each in a fresh interpreter as the
    # README flow runs them, load the LAPACK wrapper module and no other
    # scipy module, and no hashlib; solve-full reads the u_bar.csv
    # solve-singular wrote
    for argv in (["capacitary", "--R", "1"], ["solve-singular"],
                 ["solve-full", "--kappa", "0.5"]):
        argv += ["--config", workdir["cfg"], "--out", str(tmp_path)]
        assert _subcommand_modules(argv) == [
            "scipy.linalg._flapack"], argv[0]
