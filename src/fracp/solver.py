"""Continuation solver for the singular reaction model.

The pure-singular solution is produced by minimizing the regularized
functionals

    J_n(u) = (1/p) E(u) - int a(x) A_n(u(x)) dx,

where ``E`` is the discrete nonlocal energy of :mod:`fracp.operator`
and ``A_n`` is the primitive of the shifted singular term
``(t_+ + 1/n)^{-gamma}``.  Each J_n is convex (the reaction primitive
is concave), so a damped Newton iteration with Armijo backtracking
finds the unique minimizer from any start; the continuation in n with
warm starts then climbs the monotone sequence u_1 <= u_2 <= ... to its
limit.  The truncated full problem replaces A_n by the primitive of
``a(x) (m^{-gamma} + kappa m^r)`` with ``m = max(u_bar, t)``, which is
no longer concave for kappa > 0; there the same iteration is run with
a Levenberg shift whenever the Hessian loses definiteness, and the
resulting stationary point is accepted only if it dominates u_bar.
The capacitary barrier minimizes the bare energy.  All three are one
:class:`Functional` with a different reaction primitive, and the same
damped Newton iteration minimizes each.

The reaction integral splits like the energy: nodal values weighted by
exact annulus volumes inside the truncation radius, plus a one
dimensional Jacobi rule in the scaled variable xi = R_max/r for the
power tail, where the weight contributes xi^{alpha - 1}.

Everything here is deterministic: fixed quadrature rules, fixed
iteration order, no randomness.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import DomainError, UsageError
from .grid import RadialFunction, RadialGrid
from .kernel import unit_sphere_area
from .operator import (
    KernelMatrix,
    _require_match,
    energy_hessian,
    energy_seminorm,
    weak_residual,
    weight_a,
)
from .params import ProblemParams
from .quadrature import gauss_jacobi_01

__all__ = [
    "A_primitive",
    "Functional",
    "RegularizedProblem",
    "TruncatedProblem",
    "SolveReport",
    "doubling_schedule",
    "minimize_Jn",
    "solve_pure_singular",
    "solve_capacitary",
    "truncated_rhs",
    "solve_full",
    "write_solution_csv",
    "read_solution_csv",
]

_MAX_ITER = 200
_ARMIJO_C1 = 1e-4
_ARMIJO_STEPS = 60
_TAIL_RULE_NODES = 32


# ---------------------------------------------------------------------------
# reaction primitives


def A_primitive(a_val, t, n, gamma):
    """Primitive of the shifted singular term, A = int_0^t a (tau_+ + 1/n)^{-gamma}.

    Closed form: for t >= 0 it is a*[(t + 1/n)^{1-gamma} - (1/n)^{1-gamma}]
    / (1 - gamma); for t < 0 the integrand is the constant a*n^gamma, so
    the primitive continues linearly.  Broadcasts over ``t``.
    """
    t = np.asarray(t, dtype=float)
    shift = 1.0 / n
    pos = ((np.maximum(t, 0.0) + shift) ** (1.0 - gamma)
           - shift ** (1.0 - gamma)) / (1.0 - gamma)
    out = a_val * np.where(t >= 0.0, pos, float(n) ** gamma * t)
    return float(out) if out.ndim == 0 else out


def _A_prime(t, n, gamma):
    t = np.asarray(t, dtype=float)
    shift = 1.0 / n
    return np.where(t >= 0.0,
                    (np.maximum(t, 0.0) + shift) ** -gamma,
                    float(n) ** gamma)


def _A_second(t, n, gamma):
    t = np.asarray(t, dtype=float)
    shift = 1.0 / n
    return np.where(t > 0.0,
                    -gamma * (np.maximum(t, 0.0) + shift) ** (-gamma - 1.0),
                    0.0)


def _F_bar(t, ub, gamma, r_exp, kappa):
    """Primitive in t of (max(ub, .)^{-gamma} + kappa max(ub, .)^{r})."""
    t = np.asarray(t, dtype=float)
    slope0 = ub ** -gamma
    if kappa > 0.0:
        slope0 = slope0 + kappa * ub ** r_exp
    tm = np.maximum(t, ub)
    above = ub * slope0 + (tm ** (1.0 - gamma) - ub ** (1.0 - gamma)) / (1.0 - gamma)
    if kappa > 0.0:
        above = above + kappa * (tm ** (1.0 + r_exp) - ub ** (1.0 + r_exp)) / (1.0 + r_exp)
    return np.where(t <= ub, t * slope0, above)


def _F_bar_prime(t, ub, gamma, r_exp, kappa):
    t = np.asarray(t, dtype=float)
    m = np.maximum(t, ub)
    val = m ** -gamma
    if kappa > 0.0:
        val = val + kappa * m ** r_exp
    return val


def _F_bar_second(t, ub, gamma, r_exp, kappa):
    t = np.asarray(t, dtype=float)
    m = np.maximum(t, ub)
    val = -gamma * m ** (-gamma - 1.0)
    if kappa > 0.0:
        val = val + kappa * r_exp * m ** (r_exp - 1.0)
    return np.where(t > ub, val, 0.0)


def _no_reaction(t, floor):
    return np.zeros_like(t)


def _reaction_tail_rule(params: ProblemParams, grid: RadialGrid):
    """Quadrature for int_{r > R_max} a(x) h(u(x)) dx with a power tail.

    Substituting xi = R_max/r turns the region into (0, 1) with density
    xi^{alpha-1} / (xi^{N+alpha} + R^{N+alpha}) against h(U_M xi^{bt});
    the xi^{alpha-1} factor goes into a Jacobi rule.  Returns the
    weights (with a's amplitude folded in) and the profile factors.
    """
    N, alpha = params.N, params.alpha
    R = grid.R_max
    bt = grid.tail_exponent
    xi, w = gauss_jacobi_01(_TAIL_RULE_NODES, 0.0, alpha - 1.0)
    S = unit_sphere_area(N - 1)
    wT = params.c_a * S * R ** N * w / (xi ** (N + alpha) + R ** (N + alpha))
    gT = xi ** bt if bt > 0.0 else np.ones_like(xi)
    return wT, gT


# ---------------------------------------------------------------------------
# the functional


class Functional:
    """J(u) = (1/p) E(u) - int a(x) F(u(x)) dx on a fixed grid.

    ``reaction`` is the nodal primitive as a triple ``(F, F', F'')`` of
    functions ``f(t, floor)``; ``floor`` is passed through to them (the
    nodal shield of the truncated problem, None otherwise).  Without a
    reaction the functional is the bare energy.  The reaction integral
    is the nodal sum against exact annulus volumes plus the Jacobi tail
    rule, where the floor follows the values along the power tail.
    """

    def __init__(self, params: ProblemParams, grid: RadialGrid,
                 K: KernelMatrix, reaction=None, floor=None):
        _require_match(grid, K, params)
        self.params = params
        self.grid = grid
        self.K = K
        self._F = reaction or (_no_reaction,) * 3
        self._floor = floor
        self._omega = grid.volume_weights(params.N)
        self._a = weight_a(grid.nodes, params)
        self._wT, self._gT = _reaction_tail_rule(params, grid)
        self._floor_T = None if floor is None else floor[-1] * self._gT

    def objective(self, vals: np.ndarray) -> float:
        u = RadialFunction(self.grid, vals)
        e = energy_seminorm(u, self.K, self.params) / self.params.p
        F = self._F[0]
        body = float((self._omega * self._a * F(vals, self._floor)).sum())
        tail = float((self._wT
                      * F(vals[-1] * self._gT, self._floor_T)).sum())
        return e - body - tail

    def gradient(self, vals: np.ndarray) -> np.ndarray:
        u = RadialFunction(self.grid, vals)
        out = weak_residual(u, self.K, self.params)
        dF = self._F[1]
        out -= self._omega * self._a * dF(vals, self._floor)
        out[-1] -= float((self._wT * self._gT
                          * dF(vals[-1] * self._gT, self._floor_T)).sum())
        return out

    def hessian(self, vals: np.ndarray) -> np.ndarray:
        u = RadialFunction(self.grid, vals)
        H = energy_hessian(u, self.K, self.params)
        d2F = self._F[2]
        H[np.diag_indices_from(H)] -= (self._omega * self._a
                                       * d2F(vals, self._floor))
        H[-1, -1] -= float((self._wT * self._gT ** 2
                            * d2F(vals[-1] * self._gT, self._floor_T)).sum())
        return H

    def reaction(self, vals: np.ndarray) -> np.ndarray:
        """Nodal right-hand side a(r) F'(u) at the values."""
        return self._a * self._F[1](vals, self._floor)


class RegularizedProblem(Functional):
    """One level of the continuation: J_n with F = A_n on a fixed grid."""

    def __init__(self, params: ProblemParams, n: int, grid: RadialGrid,
                 K: KernelMatrix):
        if int(n) != n or n < 1:
            raise UsageError(f"n={n}: the shift index must be a "
                             "positive integer")
        self.n = n = int(n)
        g = params.gamma
        super().__init__(params, grid, K, reaction=(
            lambda t, _: A_primitive(1.0, t, n, g),
            lambda t, _: _A_prime(t, n, g),
            lambda t, _: _A_second(t, n, g)))


class TruncatedProblem(Functional):
    """The truncated full problem: F = F_bar, shielded from below by u_bar."""

    def __init__(self, params: ProblemParams, grid: RadialGrid,
                 K: KernelMatrix, u_bar: RadialFunction, kappa: float):
        if not 0.0 <= kappa <= 1.0:
            raise DomainError(f"kappa={kappa:g}: need 0 <= kappa <= 1")
        if not K.matches(u_bar):
            raise UsageError("u_bar lives on a different grid than the "
                             "kernel matrix")
        if float(u_bar.values.min()) <= 0.0:
            raise DomainError("u_bar must be strictly positive at every node")
        if kappa > 0.0 and params.r_exp is None:
            raise UsageError("kappa > 0 requires params.r_exp (growth "
                             "exponent)")
        g, r = params.gamma, params.r_exp
        super().__init__(params, grid, K, floor=u_bar.values, reaction=(
            lambda t, ub: _F_bar(t, ub, g, r, kappa),
            lambda t, ub: _F_bar_prime(t, ub, g, r, kappa),
            lambda t, ub: _F_bar_second(t, ub, g, r, kappa)))


@dataclass
class SolveReport:
    iterations: int
    final_energy: float
    residual_norm: float
    line_search_failures: int
    converged: bool


# ---------------------------------------------------------------------------
# damped Newton core


def _solve_newton_step(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Direction -H^{-1} g, shifting the diagonal when H is not SPD."""
    try:
        return -cho_solve(cho_factor(H), g)
    except LinAlgError:
        pass
    lam = 1e-10 * max(float(np.trace(H)) / H.shape[0], 1.0)
    eye = np.eye(H.shape[0])
    for _ in range(12):
        try:
            return -cho_solve(cho_factor(H + lam * eye), g)
        except LinAlgError:
            lam *= 100.0
    # fully regularized fall-through: steepest descent
    return -g


def _backtrack(f: Functional, x, free, v, d, slope):
    """Armijo backtracking from x along d; (trial, value) or None."""
    step = 1.0
    for _ in range(_ARMIJO_STEPS):
        trial = x.copy()
        trial[free] += step * d
        vt = f.objective(trial)
        if vt <= v + _ARMIJO_C1 * step * slope:
            return trial, vt
        step *= 0.5
    return None


def _minimize(f: Functional, x0, tol, free=None):
    """Damped Newton with Armijo backtracking on the free coordinates.

    Returns the final iterate and a SolveReport.  Every accepted step
    strictly decreases the objective; when neither the Newton direction
    nor steepest descent admits a decreasing step the iteration stops
    with converged=False.
    """
    x = np.array(x0, dtype=float, copy=True)
    if free is None:
        free = np.ones(x.size, dtype=bool)
    v = f.objective(x)
    failures = 0
    iterations = 0
    gn = np.inf
    for _ in range(_MAX_ITER):
        g = f.gradient(x)
        gf = g[free]
        gn = float(np.abs(gf).max()) if gf.size else 0.0
        if gn <= tol:
            return x, SolveReport(iterations, v, gn, failures, True)
        H = f.hessian(x)[np.ix_(free, free)]
        d = _solve_newton_step(H, gf)
        slope = float(gf @ d)
        if slope >= 0.0:
            failures += 1
            d = -gf
            slope = float(gf @ d)
        if -slope <= 128.0 * np.finfo(float).eps * (1.0 + abs(v)):
            # the predicted decrease is below the objective's roundoff,
            # so backtracking can no longer certify progress; take the
            # full step uncertified (it is tiny) and keep whichever
            # point has the smaller gradient
            trial = x.copy()
            trial[free] += d
            gt = f.gradient(trial)[free]
            gtn = float(np.abs(gt).max()) if gt.size else 0.0
            iterations += 1
            if gtn <= gn:
                return trial, SolveReport(iterations, f.objective(trial),
                                          gtn, failures, gtn <= tol)
            return x, SolveReport(iterations, v, gn, failures, gn <= tol)
        accepted = _backtrack(f, x, free, v, d, slope)
        if accepted is None and not np.array_equal(d, -gf):
            # Newton direction failed the backtracking budget; retry
            # along steepest descent before giving up
            failures += 1
            accepted = _backtrack(f, x, free, v, -gf, float(gf @ -gf))
        if accepted is None:
            failures += 1
            return x, SolveReport(iterations, v, gn, failures, False)
        x, v = accepted
        iterations += 1
    return x, SolveReport(iterations, v, gn, failures, gn <= tol)


def _finish(f: Functional, x, rep: SolveReport, tol: float) -> np.ndarray:
    """Project onto u >= 0 and report energy and residual there."""
    x = np.maximum(x, 0.0)
    rep.final_energy = f.objective(x)
    rep.residual_norm = float(np.abs(f.gradient(x)).max())
    if rep.residual_norm > tol:
        rep.converged = False
    return x


def doubling_schedule(n_max: int) -> list[int]:
    """Shift indices 1, 2, 4, ... up to the first power of two >= n_max."""
    out = [1]
    while out[-1] < n_max:
        out.append(2 * out[-1])
    return out


def minimize_Jn(prob: RegularizedProblem, init: RadialFunction,
                tol: float) -> tuple[RadialFunction, SolveReport]:
    """Minimize one regularized level from the given start.

    The functional is convex, so the result does not depend on ``init``
    beyond the tolerance.  The returned values are projected onto the
    nonnegative cone; if the unprojected minimizer dipped below ``-tol``
    anywhere the report is marked unconverged instead of hiding it.
    """
    if tol <= 0.0:
        raise UsageError(f"tol={tol:g}: tolerance must be positive")
    if not prob.K.matches(init):
        raise UsageError("init lives on a different grid than the problem")
    x, rep = _minimize(prob, init.values, tol)
    if float(x.min()) < -tol:
        rep.converged = False
    return RadialFunction(prob.grid, _finish(prob, x, rep, tol)), rep


def solve_pure_singular(params: ProblemParams, grid: RadialGrid,
                        K: KernelMatrix, schedule, tol: float
                        ) -> tuple[RadialFunction, list]:
    """Continuation in the shift index; returns the last level's minimizer.

    The schedule must be strictly increasing and start at 1.  Levels are
    warm-started from each other; the run stops early once successive
    minimizers agree within ``tol`` in sup norm.  A level whose solution
    drops below its predecessor by more than ``tol`` (the sequence is
    monotone in exact arithmetic) is flagged unconverged, as is the
    final level when the schedule runs out before the Cauchy criterion
    is met.
    """
    schedule = [int(n) for n in schedule]
    if not schedule or schedule[0] != 1:
        raise UsageError("continuation schedule must start at n=1")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise UsageError("continuation schedule must be strictly increasing")
    r = grid.nodes
    vals = (1.0 + r ** 2) ** (-params.beta_star / 2.0)
    reports = []
    prev = None
    settled = False
    for n in schedule:
        prob = RegularizedProblem(params, n, grid, K)
        u, rep = minimize_Jn(prob, RadialFunction(grid, vals), tol)
        if prev is not None:
            drop = float((u.values - prev).min())
            if drop < -tol:
                rep.converged = False
            settled = bool(np.abs(u.values - prev).max() <= tol)
        reports.append(rep)
        vals = u.values
        prev = vals
        if settled:
            break
    if not settled and len(schedule) > 1:
        reports[-1].converged = False
    return RadialFunction(grid, vals), reports


def solve_capacitary(R: float, params: ProblemParams, grid: RadialGrid,
                     K: KernelMatrix, tol: float) -> RadialFunction:
    """Energy minimizer pinned to 1 on the ball of radius R.

    Pure nonlocal energy, no reaction: the discrete analogue of the
    capacitary potential whose decay rate separates the admissible
    window.  The constraint is eliminated (nodes with r <= R are fixed)
    and the remaining convex problem solved by the same damped Newton.
    """
    if not 0.0 < R < grid.R_max / 4.0:
        raise UsageError(
            f"R={R:g}: the plateau radius must sit in (0, R_max/4) "
            f"= (0, {grid.R_max / 4.0:g}) to leave room for the decay")
    k = grid.index_of(R)
    free = np.ones(grid.nodes.size, dtype=bool)
    free[:k + 1] = False
    x0 = np.ones(grid.nodes.size)
    with np.errstate(divide="ignore"):
        decay = (grid.nodes[k + 1:] / R) ** -params.beta_star
    x0[k + 1:] = np.minimum(1.0, decay)
    x, _ = _minimize(Functional(params, grid, K), x0, tol, free=free)
    return RadialFunction(grid, np.clip(x, 0.0, 1.0))


# ---------------------------------------------------------------------------
# truncated full problem


def truncated_rhs(r, t, u_bar_val, params: ProblemParams, kappa: float):
    """Right-hand side of the truncated problem, a(r)(m^{-gamma} + kappa m^r).

    The argument is clamped at the shield value: m = max(u_bar_val, t),
    so the singular factor is evaluated at or above the known positive
    subsolution and the composite is well defined for every real t.
    """
    if not 0.0 <= kappa <= 1.0:
        raise DomainError(f"kappa={kappa:g}: need 0 <= kappa <= 1")
    u_bar_val = np.asarray(u_bar_val, dtype=float)
    if np.any(u_bar_val <= 0.0):
        raise DomainError("u_bar_val must be strictly positive; the "
                          "truncation shields the singularity only above "
                          "a positive floor")
    if kappa > 0.0 and params.r_exp is None:
        raise UsageError("kappa > 0 requires params.r_exp (growth exponent)")
    out = weight_a(r, params) * _F_bar_prime(t, u_bar_val, params.gamma,
                                             params.r_exp, kappa)
    return float(out) if np.ndim(out) == 0 else out


def solve_full(params: ProblemParams, grid: RadialGrid, K: KernelMatrix,
               u_bar: RadialFunction, kappa: float, tol: float
               ) -> tuple[RadialFunction, SolveReport]:
    """Stationary point of the truncated functional, started at u_bar.

    For kappa > 0 the objective is not convex (the growth term), so the
    result is a stationary point rather than a certified minimizer; it
    is accepted when it dominates u_bar, which is the property the
    construction actually needs.  A violation beyond ``tol`` flags the
    report unconverged rather than raising.
    """
    if tol <= 0.0:
        raise UsageError(f"tol={tol:g}: tolerance must be positive")
    prob = TruncatedProblem(params, grid, K, u_bar, kappa)
    x, rep = _minimize(prob, u_bar.values, tol)
    x = _finish(prob, x, rep, tol)
    if float((x - u_bar.values).min()) < -tol:
        rep.converged = False
    return RadialFunction(grid, x), rep


def write_solution_csv(u: RadialFunction, params: ProblemParams, path: str,
                       *, rhs: np.ndarray, residual: np.ndarray,
                       converged: bool) -> None:
    """Write a solution profile with its right-hand side and residual.

    The metadata header carries the problem instance, the grid hash and
    the power-tail continuation so a profile file is self-describing.
    """
    grid = u.grid
    if np.shape(rhs) != u.values.shape or np.shape(residual) != u.values.shape:
        raise UsageError("rhs and residual must be nodal arrays matching "
                         "the grid")
    a_nodes = weight_a(grid.nodes, params)
    lines = [
        "# solution: N={} s={!r} p={!r} gamma={!r} alpha={!r} c_a={!r} "
        "r_exp={!r}".format(params.N, params.s, params.p, params.gamma,
                            params.alpha, params.c_a, params.r_exp),
        "# grid_hash={} tail_exponent={!r} tail_amplitude={!r} "
        "converged={}".format(grid.grid_hash, grid.tail_exponent,
                              u.tail_amplitude, bool(converged)),
        "r,u,a,rhs,residual",
    ]
    for vals in zip(grid.nodes.tolist(), u.values.tolist(), a_nodes.tolist(),
                    np.asarray(rhs, dtype=float).tolist(),
                    np.asarray(residual, dtype=float).tolist()):
        lines.append(",".join(repr(v) for v in vals))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_solution_csv(path: str) -> tuple[RadialFunction, dict]:
    """Read a profile written by :func:`write_solution_csv`.

    Returns the radial function together with the parsed metadata
    (instance fields, grid hash, tail data, converged flag).  The node
    set and tail exponent reconstruct the grid; its hash must match the
    stored one, which catches hand-edited or truncated files.
    """
    with open(path, encoding="ascii") as fh:
        first = fh.readline().strip()
        second = fh.readline().strip()
        if not first.startswith("# solution:") or not second.startswith("#"):
            raise UsageError(f"{path}: not a solution table")
        meta: dict = {}
        for token in (first[len("# solution:"):].split()
                      + second[1:].split()):
            key, _, val = token.partition("=")
            meta[key] = val
        columns = fh.readline().strip()
        if columns != "r,u,a,rhs,residual":
            raise UsageError(f"{path}: expected 'r,u,a,rhs,residual' columns")
        rows = [line.split(",") for line in fh if line.strip()]
    r = np.array([float(row[0]) for row in rows])
    u = np.array([float(row[1]) for row in rows])
    grid = RadialGrid(nodes=r, tail_exponent=float(meta["tail_exponent"]),
                      grading=1.0)
    if grid.grid_hash != meta.get("grid_hash"):
        raise UsageError(f"{path}: grid hash mismatch; file edited?")
    meta["converged"] = meta.get("converged") == "True"
    return RadialFunction(grid, u), meta
