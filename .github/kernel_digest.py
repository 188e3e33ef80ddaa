"""Write the bits of kernel assemblies and solves to ``OUT_DIR``.

    python .github/kernel_digest.py OUT_DIR

with the package to digest on ``PYTHONPATH``.  ``kernel.json`` digests
three assemblies: the README config (M = 256), the acceptance battery's
p = 2 problem on its finest grid (M = 512, grading 1.03^(1/2)) and
(N, s, p) = (3, 0.3, 2.2) on a uniform M = 256 grid.  For each, the
file holds the sha256 of ``weights`` and of every tail block's ``W``,
``g`` and ``xi``, and the ``repr`` of ``tail_self``, ``assembly_error``
and the four clip fields, so any moved bit of K shows as a moved entry.

``solve.json`` digests the solver on the README parameters.  At M = 64
it holds J (``repr``), and the sha256 of the gradient and the Hessian,
of ``RegularizedProblem`` at n = 1, 2, 1024 and of ``TruncatedProblem``
at kappa = 0, 0.5, 1, all at one profile that dips below 0 and below
the floor u_bar.  At M = 512, where the energy is priced in three row
blocks, it holds one solve unit: the continuation to n = 16384 at tol
1e-5, ``solve_full`` at kappa = 0.1, 0.5, 0.9 on its result, and
``solve_capacitary`` at R = 1; each profile as its sha256, each
``SolveReport`` field as its ``repr``.  The README CLI flow prices no
negative value and no three-block evaluation, so only this file shows
their bits.

Evaluation at p = 2 takes its own path: it reads K's weights in place,
and a second Hessian of a point is built from them again, not from
weights priced anew.  So ``solve.json`` also holds the acceptance
battery's p = 2 problem: ``RegularizedProblem`` at n = 1, 2, 1024 on
its M = 64 grid (grading 1.03), as above, and one point at n = 1024 on
the M = 512 grid of ``kernel.json``, in three row blocks, with its
Hessian built twice, the second time after the first was overwritten
with NaN as a factorization in place overwrites it.

The script calls only ``parse_config``, ``make_radial_grid``,
``ProblemParams``, ``assemble``, the ``KernelMatrix`` fields and the
public names of ``fracp.solver``, which the base commit of a
comparison has as well, so one copy of it digests both sides;
``.github/compare_outputs.py`` lists the entries that differ.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from fracp import solver
from fracp.config import parse_config
from fracp.grid import RadialFunction, make_radial_grid
from fracp.operator import assemble
from fracp.params import ProblemParams

# the acceptance battery's p = 2 problem
P2 = ProblemParams(N=3, s=0.5, p=2.0, gamma=0.5, alpha=1.5)
README_CONFIG = """\
params.N = 3
params.s = 0.5
params.p = 2.5
params.gamma = 0.5
params.r_exp = 1.2
kappa = 0.5
grid.nodes = {nodes}
"""
SOLVE_TOL = 1e-5

FIELDS = ("tail_self", "assembly_error", "adjacent_clips", "adjacent_clipped",
          "correction_clips", "correction_clipped")


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _digest(K) -> dict:
    out = {"weights": _sha(K.weights),
           "tail": [{"start": blk.start, "W": _sha(blk.W), "g": _sha(blk.g),
                     "xi": _sha(blk.xi)} for blk in K.tail]}
    out.update((name, repr(getattr(K, name))) for name in FIELDS)
    return out


def _assemblies():
    cfg = parse_config(README_CONFIG.format(nodes=256))
    yield "readme-M256", cfg.build_grid(), cfg.params
    yield "p2-M512", _p2_grid(512, 1.03 ** 0.5), P2
    uni = ProblemParams.kernel_only(3, 0.3, 2.2)
    yield "uniform-N3-s0.3-p2.2-M256", make_radial_grid(
        tail_exponent=uni.beta_star, R_max=64.0, M=256, grading=1.0), uni


def _p2_grid(M, grading):
    return make_radial_grid(tail_exponent=P2.beta_star, R_max=64.0, M=M,
                            grading=grading)


def _report(rep) -> dict:
    return {f.name: repr(getattr(rep, f.name))
            for f in dataclasses.fields(rep)}


def _readme_instance(nodes):
    cfg = parse_config(README_CONFIG.format(nodes=nodes))
    grid = cfg.build_grid()
    return cfg.params, grid, assemble(grid, cfg.params, cfg.quad)


def _start(params, grid):
    """(1 + r^2)^(-beta_star/2), and 1.5 times it times cos r, which dips
    below 0 and below the first profile."""
    u_bar = (1.0 + grid.nodes ** 2) ** (-params.beta_star / 2.0)
    return u_bar, 1.5 * u_bar * np.cos(grid.nodes)


def _point(prob, vals) -> dict:
    pt = prob.at(vals)
    return {"J": repr(pt.value), "gradient": _sha(pt.gradient),
            "hessian": _sha(pt.hessian())}


def _functionals() -> dict:
    """J, its gradient and Hessian at a profile below 0 and below u_bar."""
    params, grid, K = _readme_instance(64)
    u_bar, vals = _start(params, grid)
    problems = {f"regularized-n{n}": solver.RegularizedProblem(
        params, n, grid, K) for n in (1, 2, 1024)}
    problems.update((f"truncated-kappa{kappa:g}", solver.TruncatedProblem(
        params, grid, K, RadialFunction(grid, u_bar), kappa))
        for kappa in (0.0, 0.5, 1.0))
    return {name: _point(prob, vals) for name, prob in problems.items()}


def _p2_functionals() -> dict:
    """The p = 2 evaluation path: J, J' and J'' on one and three row
    blocks, and a second Hessian of the three-block point."""
    grid = _p2_grid(64, 1.03)
    K = assemble(grid, P2)
    _, vals = _start(P2, grid)
    out = {f"regularized-M64-n{n}": _point(
        solver.RegularizedProblem(P2, n, grid, K), vals)
        for n in (1, 2, 1024)}
    grid = _p2_grid(512, 1.03 ** 0.5)
    K = assemble(grid, P2)
    _, vals = _start(P2, grid)
    pt = solver.RegularizedProblem(P2, 1024, grid, K).at(vals)
    H = pt.hessian()
    first = _sha(H)
    H.fill(np.nan)
    out["regularized-M512-n1024"] = {
        "J": repr(pt.value), "gradient": _sha(pt.gradient), "hessian": first,
        "hessian-again": _sha(pt.hessian())}
    return out


def _solve_unit() -> dict:
    """Continuation, three truncated solves and the capacitary barrier."""
    params, grid, K = _readme_instance(512)
    schedule = [2 ** k for k in range(15)]
    u_bar, reports = solver.solve_pure_singular(params, grid, K, schedule,
                                                tol=SOLVE_TOL)
    out = {"pure-singular": {"u": _sha(u_bar.values),
                             "reports": [_report(r) for r in reports]}}
    for kappa in (0.1, 0.5, 0.9):
        u, rep = solver.solve_full(params, grid, K, u_bar, kappa,
                                   tol=SOLVE_TOL)
        out[f"full-kappa{kappa:g}"] = {"u": _sha(u.values),
                                       "report": _report(rep)}
    cap = solver.solve_capacitary(1.0, params, grid, K, tol=SOLVE_TOL)
    out["capacitary-R1"] = {"u": _sha(cap.values)}
    return out


def _write(out_dir, name, digests) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="ascii",
              newline="\n") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv) -> int:
    (out_dir,) = argv
    os.makedirs(out_dir, exist_ok=True)
    _write(out_dir, "kernel.json",
           {name: _digest(assemble(grid, params))
            for name, grid, params in _assemblies()})
    _write(out_dir, "solve.json", {"functional-M64": _functionals(),
                                   "solve-M512": _solve_unit(),
                                   "functional-p2": _p2_functionals()})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
