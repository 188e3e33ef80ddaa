"""The code the benchmark runs inside its own subprocesses.

    python perfbench/child.py battery --seed S --out DIR --result FILE [--trace]
    python perfbench/child.py sweep --kappas K1,K2,.. --config CFG --until T \
        --result FILE [--trace]
    python perfbench/child.py cli --result FILE -- <fracp arguments>

Each mode writes one JSON object to ``--result`` before it exits.  Times
come from ``time.monotonic``, which is one clock for every process on the
machine, so the parent can subtract its own spawn time from ``t_ready``
and give the sweep an ``--until`` time on its own clock.
The ``cli`` mode is the traced stand-in for ``python -m fracp.cli``: the
tracer wraps ``fracp.cli.main`` with everything else and the exit code is
passed through.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import spans
from fracp import cli, config, operator, solver, verify

# calls below go through the module attributes, the bindings the tracer
# wraps; a name imported from them here would bypass it

SWEEP_TOL = 1e-5
SWEEP_MAX_N = 16384
SWEEP_MIN_UNITS = 2    # one untraced and one traced unit in a traced run


def _traced(trace: bool, work):
    """Run ``work()``; return (result, wall seconds, trace summary or None).

    The summary holds the per-layer metrics and a per-function table of
    calls, inclusive and self seconds, computed from the spans after the
    work has finished.
    """
    tracer = spans.Tracer()
    if trace:
        tracer.install()
    try:
        t0 = time.perf_counter()
        result = work()
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    if not trace:
        return result, wall, None
    return result, wall, {"metrics": spans.layer_metrics(tracer),
                          "spans": spans.span_table(tracer.spans)}


def battery(args) -> dict:
    settings = verify.VerifySettings(seed=args.seed)
    path = os.path.join(args.out, "report.json")
    report, wall, layers = _traced(
        args.trace, lambda: verify.run_acceptance(settings, out_path=path))
    failed = [c.name for c in report.checks if not c.passed]
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"wall_s": wall, "failed_checks": failed, "digest": digest,
            "layers": layers}


def _sweep_unit(params, grid, K, kappas):
    """The timed work: continuation, five truncated solves, capacitary."""
    schedule = [2 ** k for k in range(SWEEP_MAX_N.bit_length())]
    u_bar, levels = solver.solve_pure_singular(params, grid, K, schedule,
                                               tol=SWEEP_TOL)
    full = [solver.solve_full(params, grid, K, u_bar, kappa, tol=SWEEP_TOL)
            for kappa in kappas]
    cap = solver.solve_capacitary(1.0, params, grid, K, tol=SWEEP_TOL)
    return u_bar, levels, full, cap


def _sweep_problems(u_bar, levels, full) -> list[str]:
    """The unit's failures, by the CLI's exit-1 and exit-3 criteria."""
    problems = [f"level {k} residual {rep.residual_norm:.3e}"
                for k, rep in enumerate(levels)
                if rep.residual_norm > SWEEP_TOL]
    scale = float(u_bar.values.max())
    for k, (u_t, rep) in enumerate(full):
        if rep.residual_norm > SWEEP_TOL:
            problems.append(f"solve_full {k} residual "
                            f"{rep.residual_norm:.3e}")
        drop = float((u_t.values - u_bar.values).min())
        if drop < -SWEEP_TOL * scale:
            problems.append(f"solve_full {k} drops below u_bar by {-drop:.3e}")
    return problems


def sweep(args) -> dict:
    cfg = config.read_config(args.config)
    grid = cfg.build_grid()
    K = operator.assemble(grid, cfg.params, cfg.quad)
    t_ready = time.monotonic()
    kappas = [float(k) for k in args.kappas.split(",")]
    units = []
    last = 0.0
    while (len(units) < SWEEP_MIN_UNITS
           or time.monotonic() + last <= args.until):
        # in a traced run every other unit runs untraced, starting with an
        # untraced one, which gives the tracing overhead from the same
        # process without charging the first unit's cold start to tracing
        trace = args.trace and len(units) % 2 == 1
        unit = {"traced": trace}
        t0 = time.monotonic()
        try:
            (u_bar, levels, full, cap), wall, layers = _traced(
                trace, lambda: _sweep_unit(cfg.params, grid, K, kappas))
        except Exception as exc:  # a raising solve is a failed unit
            unit.update(wall_s=None, problems=[repr(exc)])
        else:
            h = hashlib.sha256(u_bar.values.tobytes())
            for u_t, _ in full:
                h.update(u_t.values.tobytes())
            h.update(cap.values.tobytes())
            unit.update(wall_s=wall, layers=layers, digest=h.hexdigest(),
                        problems=_sweep_problems(u_bar, levels, full))
        last = time.monotonic() - t0
        units.append(unit)
    return {"t_ready": t_ready, "units": units}


def run_cli(args) -> dict:
    code, _, layers = _traced(True, lambda: cli.main(args.rest))
    return {"code": code, "layers": layers}


def main() -> int:
    t_ready = time.monotonic()
    root = os.environ["PERFBENCH_SRC"]
    if not os.path.abspath(cli.__file__).startswith(root + os.sep):
        raise SystemExit(f"fracp was imported from {cli.__file__}, "
                         f"not from {root}")
    ap = argparse.ArgumentParser(prog="child.py")
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("battery")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--result", required=True)
    p = sub.add_parser("sweep")
    p.add_argument("--kappas", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--until", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--result", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--result", required=True)
    p.add_argument("rest", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    if args.mode == "cli" and args.rest[:1] == ["--"]:
        args.rest = args.rest[1:]
    modes = {"battery": battery, "sweep": sweep, "cli": run_cli}
    payload = modes[args.mode](args)
    payload.setdefault("t_ready", t_ready)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return payload.get("code", 0)


if __name__ == "__main__":
    sys.exit(main())
