"""Command-line driver for the solve and verification pipelines.

Subcommands:

``kernel-table``
    Sweep the power-profile constant over a beta range (containing
    beta_star by default, where the constant crosses zero) and write the
    CSV table.
``capacitary --R X``
    Solve the unit-plateau problem at radius R and check its decay
    against the capacitary rate.
``solve-singular``
    Run the regularization continuation and write the limit profile.
``solve-full --kappa X``
    Continuation plus the truncated full problem; checks that the full
    solution dominates the pure-singular one.
``verify``
    The whole acceptance battery; writes ``report.json``.
``plotdata``
    Turn previously written solution CSVs into ``loglog.csv`` and
    ``profiles.csv`` with fitted decay envelopes.

Exit codes: 0 all good, 1 a verification/ordering check failed, 2 bad
usage or configuration, 3 numerical non-convergence.  Outputs are
byte-stable for a fixed config.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .analysis import check_decay_sandwich, fit_decay
from .config import RunConfig, read_config
from .errors import (ConfigError, ConvergenceError, DomainError, FracpError,
                     UsageError)
from .kernel import (PIPELINE_CONVENTION, profile_table_rows,
                     profile_window, write_profile_table)
from .operator import assemble, weak_residual
from .solver import (RegularizedProblem, TruncatedProblem, read_solution_csv,
                     solve_capacitary, solve_full, solve_pure_singular,
                     write_solution_csv)
from .verify import VerifySettings, run_acceptance

__all__ = ["main"]


def _out_dir(cfg: RunConfig, args) -> str:
    out = args.out if args.out else cfg.output_dir
    os.makedirs(out, exist_ok=True)
    return out


def _cmd_kernel_table(cfg: RunConfig, args) -> int:
    params = cfg.params
    lo_w, hi_w = profile_window(params)
    bstar = params.beta_star
    beta_min = args.beta_min if args.beta_min is not None \
        else lo_w + 0.2 * (bstar - lo_w)
    beta_max = args.beta_max if args.beta_max is not None \
        else bstar + 0.4 * (hi_w - bstar)
    steps = args.steps
    if not lo_w < beta_min < beta_max < hi_w:
        raise ConfigError(
            f"beta range [{beta_min:g}, {beta_max:g}] must sit inside the "
            f"open profile window ({lo_w:g}, {hi_w:g})")
    if steps < 2:
        raise ConfigError(f"--steps {steps}: need at least 2")
    betas = list(np.linspace(beta_min, beta_max, steps))
    if beta_min < bstar < beta_max and \
            min(abs(b - bstar) for b in betas) > 1e-12:
        betas = sorted(betas + [bstar])

    rows = profile_table_rows(params, betas, cfg.quad, PIPELINE_CONVENTION)
    path = write_profile_table(_out_dir(cfg, args), params, rows,
                               PIPELINE_CONVENTION)
    print(f"kernel-table: {len(rows)} rows -> {path}")
    return 0


def _cmd_capacitary(cfg: RunConfig, args) -> int:
    params = cfg.params
    R = args.R
    grid = cfg.build_grid(anchors=(1.0, R))
    K = assemble(grid, params, cfg.quad)
    u = solve_capacitary(R, params, grid, K, tol=cfg.solver.tol)
    residual = weak_residual(u, K, params)
    stationary = float(np.abs(residual[grid.nodes > R]).max()) \
        <= cfg.solver.tol
    out = _out_dir(cfg, args)
    path = os.path.join(out, f"capacitary_R{R:g}.csv")
    write_solution_csv(u, params, path, rhs=np.zeros_like(u.values),
                       residual=residual, converged=stationary)

    fit = fit_decay(u)
    dev = abs(fit.exponent - params.beta_star) / params.beta_star
    r = grid.nodes
    sel = (r >= 2.0 * R) & (r <= grid.R_max / 2.0)
    plateau = float((u.values[sel] * (r[sel] / R) ** params.beta_star).max())
    cap = 1.05 * params.p ** (1.0 / (params.p - 1.0))
    rise = float(np.diff(u.values).max())
    checks = [
        ("tail exponent vs beta_star", dev <= 0.05, f"rel dev {dev:.3e}"),
        ("scaled plateau bound", plateau <= cap,
         f"{plateau:.6f} vs cap {cap:.6f}"),
        ("nonincreasing profile", rise <= 1e-8, f"max rise {rise:.3e}"),
    ]
    ok = True
    for name, passed, detail in checks:
        ok &= passed
        print(f"capacitary check {name}: "
              f"{'PASS' if passed else 'FAIL'} ({detail})")
    print(f"capacitary: profile -> {path}")
    if not stationary:
        print("capacitary: stationarity tolerance missed on the free nodes",
              file=sys.stderr)
        return 3
    return 0 if ok else 1


def _run_continuation(cfg: RunConfig, grid, K):
    params = cfg.params
    u, reports = solve_pure_singular(params, grid, K, cfg.schedule(),
                                     tol=cfg.solver.tol)
    stationary = all(r.residual_norm <= cfg.solver.tol for r in reports)
    settled = reports[-1].converged
    for n, rep in zip(cfg.schedule(), reports):
        print(f"  n={n:<6d} iters={rep.iterations:<3d} "
              f"residual={rep.residual_norm:.3e} energy={rep.final_energy!r}")
    if not settled:
        print("  note: continuation not settled at schedule end "
              "(successive levels still move more than solver.tol); "
              "the last level is reported")
    return u, reports, stationary, settled


def _write_singular(cfg: RunConfig, grid, K, u, converged: bool, out: str):
    params = cfg.params
    n_last = cfg.schedule()[-1]
    prob = RegularizedProblem(params, n_last, grid, K)
    path = os.path.join(out, "u_bar.csv")
    write_solution_csv(u, params, path, rhs=prob.reaction(u.values),
                       residual=prob.gradient(u.values), converged=converged)
    return path


def _cmd_solve_singular(cfg: RunConfig, args) -> int:
    grid = cfg.build_grid()
    K = assemble(grid, cfg.params, cfg.quad)
    print(f"solve-singular: continuation over n = {cfg.schedule()}")
    u, reports, stationary, settled = _run_continuation(cfg, grid, K)
    out = _out_dir(cfg, args)
    path = _write_singular(cfg, grid, K, u, stationary and settled, out)
    print(f"solve-singular: profile -> {path}")
    if not stationary:
        print("solve-singular: a regularization level missed its "
              "stationarity tolerance", file=sys.stderr)
        return 3
    return 0


def _cmd_solve_full(cfg: RunConfig, args) -> int:
    params = cfg.params
    kappa = cfg.kappa if args.kappa is None else args.kappa
    if not 0.0 <= kappa <= 1.0:
        raise ConfigError(f"--kappa {kappa!r}: need 0 <= kappa <= 1")
    if kappa > 0.0 and params.r_exp is None:
        raise ConfigError(
            "kappa > 0 needs params.r_exp in the config, see (H_f)")
    grid = cfg.build_grid()
    K = assemble(grid, params, cfg.quad)
    print(f"solve-full: continuation over n = {cfg.schedule()}")
    u_bar, _, stationary, settled = _run_continuation(cfg, grid, K)
    out = _out_dir(cfg, args)
    _write_singular(cfg, grid, K, u_bar, stationary and settled, out)
    if not stationary:
        print("solve-full: continuation did not converge", file=sys.stderr)
        return 3

    u_t, rep = solve_full(params, grid, K, u_bar, kappa, tol=cfg.solver.tol)
    prob = TruncatedProblem(params, grid, K, u_bar, kappa)
    path = os.path.join(out, "u_tilde.csv")
    write_solution_csv(u_t, params, path, rhs=prob.reaction(u_t.values),
                       residual=prob.gradient(u_t.values),
                       converged=rep.converged)
    scale = float(u_bar.values.max())
    drop = float((u_t.values - u_bar.values).min())
    print(f"solve-full: kappa={kappa:g} profile -> {path}")
    print(f"solve-full check domination: "
          f"{'PASS' if drop >= -cfg.solver.tol * scale else 'FAIL'} "
          f"(worst normalized drop {drop / scale:.3e})")
    if rep.residual_norm > cfg.solver.tol:
        print("solve-full: stationarity tolerance missed", file=sys.stderr)
        return 3
    if drop < -cfg.solver.tol * scale:
        return 1
    return 0


def _cmd_verify(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    settings = VerifySettings(
        R_max=cfg.grid.r_max, grading=cfg.grid.grading, M=cfg.grid.nodes,
        M_coarse=max(32, cfg.grid.nodes // 2), M_fine=2 * cfg.grid.nodes,
        schedule_max_n=cfg.solver.schedule_max_n, tol=cfg.solver.tol,
        seed=cfg.seed)
    path = os.path.join(out, "report.json")
    report = run_acceptance(settings, out_path=path)
    for c in report.checks:
        print(f"check {c.name}: {'PASS' if c.passed else 'FAIL'} "
              f"(measured {c.measured!r})")
    n_fail = sum(not c.passed for c in report.checks)
    print(f"verify: report -> {path}")
    if n_fail:
        print(f"verify: {n_fail} of {len(report.checks)} checks failed",
              file=sys.stderr)
        return 1
    print(f"verify: all {len(report.checks)} checks passed")
    return 0


def _cmd_plotdata(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    params = cfg.params
    paths = {name: os.path.join(out, name + ".csv")
             for name in ("u_bar", "u_tilde")}
    for name, path in paths.items():
        if not os.path.exists(path):
            raise ConfigError(
                f"missing input {path}; run "
                f"{'solve-singular' if name == 'u_bar' else 'solve-full'} "
                "first")
    u_bar, meta = read_solution_csv(paths["u_bar"])
    u_tilde, _ = read_solution_csv(paths["u_tilde"])
    if u_bar.grid.grid_hash != u_tilde.grid.grid_hash:
        raise ConfigError("u_bar.csv and u_tilde.csv use different grids")
    for key, want in (("N", float(params.N)), ("s", params.s),
                      ("p", params.p), ("gamma", params.gamma),
                      ("alpha", params.alpha)):
        got = float(meta[key])
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            raise ConfigError(
                f"u_bar.csv was computed at {key}={got!r} but the config "
                f"says {key}={want!r}")

    R = u_bar.grid.R_max
    lo, hi = R / 8.0, R / 2.0
    r = u_bar.grid.nodes
    sel = (r >= lo) & (r <= hi) & (u_bar.values > 0.0) \
        & (u_tilde.values > 0.0)
    if not np.any(sel):
        raise ConfigError(
            f"fit window [{lo:g}, {hi:g}] is empty after filtering to "
            "positive profile values; nothing to plot")

    lower, upper = check_decay_sandwich(u_bar, params, window=(lo, hi))
    c_lo, c_hi = lower.measured, upper.measured

    loglog = os.path.join(out, "loglog.csv")
    lines = [f"# log-log decay data window=[{lo!r},{hi!r}]",
             "log_r,log_u_bar,log_u_tilde"]
    for rv, ub, ut in zip(r[sel].tolist(), u_bar.values[sel].tolist(),
                          u_tilde.values[sel].tolist()):
        lines.append(f"{math.log(rv)!r},{math.log(ub)!r},{math.log(ut)!r}")
    with open(loglog, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    profiles = os.path.join(out, "profiles.csv")
    pos = r > 0.0
    lines = [
        "# profiles with fitted decay envelopes: "
        f"lower {c_lo!r}*r^-{params.beta_star!r}, "
        f"upper {c_hi!r}*r^-{params.beta_def!r}",
        "r,u_bar,u_tilde,env_lower,env_upper",
    ]
    for rv, ub, ut in zip(r[pos].tolist(), u_bar.values[pos].tolist(),
                          u_tilde.values[pos].tolist()):
        lines.append(f"{rv!r},{ub!r},{ut!r},"
                     f"{c_lo * rv ** -params.beta_star!r},"
                     f"{c_hi * rv ** -params.beta_def!r}")
    with open(profiles, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"plotdata: {loglog} and {profiles}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracp",
        description="Radial solver and verification pipeline for a "
                    "singular nonlocal reaction problem")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="path to the key=value run configuration")
        p.add_argument("--out", default=None,
                       help="output directory (overrides output_dir)")

    p = sub.add_parser("kernel-table",
                       help="sweep the power-profile constant over beta")
    common(p)
    p.add_argument("--beta-min", type=float, default=None)
    p.add_argument("--beta-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=13)

    p = sub.add_parser("capacitary", help="solve the plateau problem")
    common(p)
    p.add_argument("--R", type=float, required=True,
                   help="plateau radius (needs 0 < R < r_max/4)")

    p = sub.add_parser("solve-singular",
                       help="regularization continuation to the "
                            "pure-singular profile")
    common(p)

    p = sub.add_parser("solve-full",
                       help="truncated full problem on top of the "
                            "continuation")
    common(p)
    p.add_argument("--kappa", type=float, default=None,
                   help="growth-term weight in [0, 1] (overrides config)")

    p = sub.add_parser("verify", help="run the full acceptance battery")
    common(p)

    p = sub.add_parser("plotdata",
                       help="derive plot-ready CSVs from solution files")
    common(p)
    return ap


_COMMANDS = {
    "kernel-table": _cmd_kernel_table,
    "capacitary": _cmd_capacitary,
    "solve-singular": _cmd_solve_singular,
    "solve-full": _cmd_solve_full,
    "verify": _cmd_verify,
    "plotdata": _cmd_plotdata,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = read_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, UsageError, DomainError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"non-convergence ({args.command}): {exc}", file=sys.stderr)
        return 3
    except FracpError as exc:
        print(f"numerical failure ({args.command}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
