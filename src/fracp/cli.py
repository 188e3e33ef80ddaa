"""Command-line driver for the solve and verification pipelines.

Subcommands:

``kernel-table``
    Sweep the power-profile constant over a beta range (containing
    beta_star by default, where the constant crosses zero) and write the
    CSV table.
``capacitary --R X``
    Solve the unit-plateau problem at radius R (the config's grid, with
    its nodes r <= R pinned to 1) and check its decay against the
    capacitary rate.
``solve-singular``
    Run the regularization continuation and write the limit profile.
``solve-full --kappa X``
    The truncated full problem on top of the ``u_bar.csv`` that
    ``solve-singular`` wrote; checks that the full solution dominates it.
``verify``
    The whole acceptance battery; writes ``report.json``.
``plotdata``
    Turn previously written solution CSVs into ``loglog.csv`` and
    ``profiles.csv`` with fitted decay envelopes.

Exit codes: 0 all good, 1 a verification/ordering check failed, 2 bad
usage or configuration, 3 numerical non-convergence.  Outputs are
byte-stable for a fixed config.

The solver and the battery are imported by the subcommands that run
them: the solver loads scipy's compiled LAPACK wrappers for the dense
Cholesky factorization, which ``kernel-table`` and ``plotdata`` never
need, and every subcommand is a process of its own.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .analysis import (capacitary_stationarity, check_capacitary,
                       check_decay_sandwich, decay_window, read_solution_csv,
                       write_solution_csv)
from .config import RunConfig, read_config
from .errors import (ConfigError, ConvergenceError, DomainError, FracpError,
                     UsageError)
from .grid import grid_difference
from .kernel import profile_table_rows, profile_window, write_profile_table
from .operator import assemble

__all__ = ["main"]


def _out_dir(cfg: RunConfig, args) -> str:
    out = args.out if args.out else cfg.output_dir
    os.makedirs(out, exist_ok=True)
    return out


def _say(*args) -> None:
    """Print to stdout.  A reader that closes it early (``fracp
    solve-singular ... | head -1``) sends the rest to os.devnull: the step
    still writes its files and returns its exit code."""
    try:
        print(*args, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _print_checks(checks) -> None:
    for c in checks:
        _say(f"check {c.name}: {'PASS' if c.passed else 'FAIL'} "
             f"(measured {c.measured!r})")


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

    rows = profile_table_rows(params, betas, cfg.quad)
    path = write_profile_table(_out_dir(cfg, args), params, rows)
    _say(f"kernel-table: {len(rows)} rows -> {path}")
    return 0


def _cmd_capacitary(cfg: RunConfig, args) -> int:
    from .solver import solve_capacitary
    params = cfg.params
    R = args.R
    grid = cfg.build_grid()
    K = assemble(grid, params, cfg.quad)
    u = solve_capacitary(R, params, grid, K, tol=cfg.solver.tol)
    residual, miss = capacitary_stationarity(u, R, K, cfg.solver.tol)
    out = _out_dir(cfg, args)
    path = os.path.join(out, f"capacitary_R{R:g}.csv")
    write_solution_csv(u, params, path, rhs=np.zeros_like(u.values),
                       residual=residual, converged=miss is None,
                       solver=cfg.solver)

    _, checks = check_capacitary(u, R, params, stationary=miss is None)
    _print_checks(checks)
    _say(f"capacitary: profile -> {path}")
    if miss is not None:
        print(f"capacitary: {miss}", file=sys.stderr)
        return 3
    return 0 if all(c.passed for c in checks) else 1


def _read_input(cfg: RunConfig, out: str, name: str, step: str):
    """The profile ``<out>/<name>.csv`` that ``step`` wrote, its header and
    path; ConfigError if it is missing or unreadable, or was computed for
    other parameters or solver settings or on another grid than this
    config's."""
    path = os.path.join(out, name + ".csv")
    if not os.path.exists(path):
        raise ConfigError(f"missing input {path}; run {step} first")
    try:
        u, meta = read_solution_csv(path)
    except UsageError as exc:
        raise ConfigError(f"{exc}; run {step} again") from None
    wanted = {key: getattr(cfg.params, key)
              for key in ("N", "s", "p", "gamma", "alpha", "c_a")}
    wanted.update({"solver.tol": cfg.solver.tol,
                   "solver.schedule_max_n": cfg.solver.schedule_max_n})
    for key, want in wanted.items():
        if abs(float(meta[key]) - want) > 1e-12 * abs(want):
            raise ConfigError(
                f"{name}.csv was computed at {key}={meta[key]} but the config "
                f"says {key}={want!r}; run {step} again")
    difference = grid_difference(u.grid, cfg.build_grid())
    if difference is not None:
        raise ConfigError(f"{name}.csv lies on another grid than the "
                          f"config's ({difference}); run {step} again")
    return u, meta, path


def _cmd_solve_singular(cfg: RunConfig, args) -> int:
    from .solver import RegularizedProblem, solve_pure_singular
    params, tol = cfg.params, cfg.solver.tol
    grid = cfg.build_grid()
    K = assemble(grid, params, cfg.quad)
    schedule = cfg.schedule()
    _say(f"solve-singular: continuation over n = {schedule}")
    u, reports = solve_pure_singular(params, grid, K, schedule, tol=tol)
    stationary = all(r.residual_norm <= tol for r in reports)
    settled = reports[-1].converged
    for n, rep in zip(schedule, reports):
        _say(f"  n={n:<6d} iters={rep.iterations:<3d} "
             f"residual={rep.residual_norm:.3e} energy={rep.final_energy!r}")
    if not settled:
        _say("  note: continuation not settled at schedule end "
             "(successive levels still move more than solver.tol); "
             "the last level is reported")
    prob = RegularizedProblem(params, schedule[len(reports) - 1], grid, K)
    path = os.path.join(_out_dir(cfg, args), "u_bar.csv")
    write_solution_csv(u, params, path, rhs=prob.reaction(u.values),
                       residual=prob.at(u.values).gradient,
                       converged=stationary and settled,
                       solver=cfg.solver)
    _say(f"solve-singular: profile -> {path}")
    if not stationary:
        print("solve-singular: a regularization level missed its "
              "stationarity tolerance", file=sys.stderr)
        return 3
    return 0


def _cmd_solve_full(cfg: RunConfig, args) -> int:
    from .solver import TruncatedProblem, solve_full
    params = cfg.params
    kappa = cfg.kappa if args.kappa is None else args.kappa
    if not 0.0 <= kappa <= 1.0:
        raise ConfigError(f"--kappa {kappa!r}: need 0 <= kappa <= 1")
    if kappa > 0.0 and params.r_exp is None:
        raise ConfigError(
            "kappa > 0 needs params.r_exp in the config, see (H_f)")
    out = _out_dir(cfg, args)
    u_bar, meta, path = _read_input(cfg, out, "u_bar", "solve-singular")
    _say(f"solve-full: u_bar <- {path}")
    if meta["residual_norm"] > cfg.solver.tol:  # the reader refused nan
        print(f"solve-full: {path} misses the stationarity tolerance "
              f"(residual {meta['residual_norm']:.3e})", file=sys.stderr)
        return 3

    grid = u_bar.grid
    K = assemble(grid, params, cfg.quad)
    u_t, rep = solve_full(params, grid, K, u_bar, kappa, tol=cfg.solver.tol)
    prob = TruncatedProblem(params, grid, K, u_bar, kappa)
    path = os.path.join(out, "u_tilde.csv")
    write_solution_csv(u_t, params, path, rhs=prob.reaction(u_t.values),
                       residual=prob.at(u_t.values).gradient,
                       converged=rep.converged, solver=cfg.solver)
    scale = float(u_bar.values.max())
    drop = float((u_t.values - u_bar.values).min())
    _say(f"solve-full: kappa={kappa:g} profile -> {path}")
    _say(f"solve-full check domination: "
         f"{'PASS' if drop >= -cfg.solver.tol * scale else 'FAIL'} "
         f"(worst normalized drop {drop / scale:.3e})")
    if rep.residual_norm > cfg.solver.tol:
        print("solve-full: stationarity tolerance missed", file=sys.stderr)
        return 3
    if drop < -cfg.solver.tol * scale:
        return 1
    return 0


def _cmd_verify(cfg: RunConfig, args) -> int:
    from .verify import VerifySettings, run_acceptance
    out = _out_dir(cfg, args)
    settings = VerifySettings(
        R_max=cfg.grid.r_max, M=cfg.grid.nodes,
        M_coarse=max(32, cfg.grid.nodes // 2), M_fine=2 * cfg.grid.nodes,
        schedule_max_n=cfg.solver.schedule_max_n, tol=cfg.solver.tol,
        seed=cfg.seed)
    path = os.path.join(out, "report.json")
    report = run_acceptance(settings, out_path=path)
    _print_checks(report.checks)
    n_fail = sum(not c.passed for c in report.checks)
    _say(f"verify: report -> {path}")
    if n_fail:
        print(f"verify: {n_fail} of {len(report.checks)} checks failed",
              file=sys.stderr)
        return 1
    _say(f"verify: all {len(report.checks)} checks passed")
    return 0


def _cmd_plotdata(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg, args)
    params = cfg.params
    u_bar, _, _ = _read_input(cfg, out, "u_bar", "solve-singular")
    u_tilde, meta, _ = _read_input(cfg, out, "u_tilde", "solve-full")
    # the growth term kappa t^r_exp enters u_tilde only, so u_bar is not
    # refused on r_exp; the header holds repr(r_exp), None included
    if meta["r_exp"] != repr(params.r_exp):
        raise ConfigError(
            f"u_tilde.csv was computed at r_exp={meta['r_exp']} but the "
            f"config says r_exp={params.r_exp!r}; run solve-full again")

    lo, hi = decay_window(u_bar.grid)
    r = u_bar.grid.nodes
    sel = (r >= lo) & (r <= hi) & (u_bar.values > 0.0) \
        & (u_tilde.values > 0.0)
    if not np.any(sel):
        raise ConfigError(
            f"fit window [{lo:g}, {hi:g}] is empty after filtering to "
            "positive profile values; nothing to plot")

    lower, upper = check_decay_sandwich(u_bar, params)
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
    _say(f"plotdata: {loglog} and {profiles}")
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
                   help="plateau radius: the grid nodes r <= R are pinned "
                        "to 1 (needs r_1 <= R < r_max/4, r_1 the first "
                        "node after the origin)")

    p = sub.add_parser("solve-singular",
                       help="regularization continuation to the "
                            "pure-singular profile")
    common(p)

    p = sub.add_parser("solve-full",
                       help="truncated full problem on top of the u_bar.csv "
                            "solve-singular wrote")
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
