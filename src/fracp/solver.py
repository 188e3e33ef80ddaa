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
from scipy.linalg import cho_factor, cho_solve

from .errors import DomainError, UsageError
from .grid import RadialFunction, RadialGrid
from .kernel import unit_sphere_area
from .operator import (  # noqa: F401  (fracp.solver.weak_residual is read)
    KernelMatrix,
    _Buffers,
    _require_match,
    energy_terms,
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
    "solve_full",
]

_MAX_ITER = 200
_ARMIJO_C1 = 1e-4
_ARMIJO_STEPS = 60
_TAIL_RULE_NODES = 32


# ---------------------------------------------------------------------------
# reaction primitives


def A_primitive(t, n, gamma):
    """Primitive of the shifted singular term, A = int_0^t (tau_+ + 1/n)^{-gamma}.

    Closed form: for t >= 0 it is [(t + 1/n)^{1-gamma} - (1/n)^{1-gamma}]
    / (1 - gamma); for t < 0 the integrand is the constant n^gamma, so
    the primitive continues linearly.  Broadcasts over ``t``.  The weight
    a(x) multiplies it in :class:`Functional`, not here.
    """
    t = np.asarray(t, dtype=float)
    shift = 1.0 / n
    pos = ((np.maximum(t, 0.0) + shift) ** (1.0 - gamma)
           - shift ** (1.0 - gamma)) / (1.0 - gamma)
    out = np.where(t >= 0.0, pos, float(n) ** gamma * t)
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
        # the buffer set a continuation lends every level it minimizes;
        # None outside one, and then each minimization allocates its own
        self._buffers = None

    def at(self, vals: np.ndarray) -> "_Point":
        """The functional priced at ``vals``: one energy pass for J, J' and J''."""
        return _Point(self, vals)

    def reaction(self, vals: np.ndarray) -> np.ndarray:
        """Nodal right-hand side a(r) F'(u) at the values."""
        return self._a * self._F[1](vals, self._floor)


class _Point:
    """A Functional at one set of nodal values, priced from one energy pass.

    ``value`` and ``gradient`` are summed on construction from one
    :func:`~fracp.operator.energy_terms` evaluation, and :meth:`hessian`
    reuses the weights of that same evaluation.  Inside a solve the
    evaluation is priced into the solve's buffers, so :meth:`hessian`
    works until the next point is priced, and raises after that.
    """

    def __init__(self, f: Functional, vals: np.ndarray, buffers=None):
        self.f = f
        self.vals = vals
        self._terms = energy_terms(RadialFunction(f.grid, vals), f.K,
                                   f.params, buffers=buffers)
        F, dF, _ = f._F
        tail_vals = vals[-1] * f._gT
        body = float((f._omega * f._a * F(vals, f._floor)).sum())
        tail = float((f._wT * F(tail_vals, f._floor_T)).sum())
        self.value = self._terms.energy / f.params.p - body - tail
        g = self._terms.residual()
        g -= f._omega * f._a * dF(vals, f._floor)
        g[-1] -= float((f._wT * f._gT * dF(tail_vals, f._floor_T)).sum())
        self.gradient = g

    def hessian(self) -> np.ndarray:
        """J'' at the point, in the flux buffer of its evaluation."""
        f, vals = self.f, self.vals
        H = self._terms.hessian()
        d2F = f._F[2]
        H[np.diag_indices_from(H)] -= f._omega * f._a * d2F(vals, f._floor)
        H[-1, -1] -= float((f._wT * f._gT ** 2
                            * d2F(vals[-1] * f._gT, f._floor_T)).sum())
        return H


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
            lambda t, _: A_primitive(t, n, g),
            lambda t, _: _A_prime(t, n, g),
            lambda t, _: _A_second(t, n, g)))


class TruncatedProblem(Functional):
    """The truncated full problem: F = F_bar, shielded from below by u_bar."""

    def __init__(self, params: ProblemParams, grid: RadialGrid,
                 K: KernelMatrix, u_bar: RadialFunction, kappa: float):
        if not 0.0 <= kappa <= 1.0:
            raise DomainError(f"kappa={kappa:g}: need 0 <= kappa <= 1")
        if not K.matches(u_bar.grid):
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


def _solve_newton_step(hessian, g: np.ndarray) -> np.ndarray:
    """Direction -H^{-1} g, shifting the diagonal when H is not SPD.

    ``hessian()`` returns the symmetric H in a work array.  H is
    factored in place, so a failed factorization leaves it overwritten
    and every shifted retry asks for it again.
    """
    def solve(H):
        # H is symmetric, so H.T is the same matrix in the Fortran order
        # LAPACK works in; handed H itself, cho_factor would copy it
        return -cho_solve(cho_factor(H.T, overwrite_a=True), g)

    H = hessian()
    n = H.shape[0]
    lam = 1e-10 * max(float(np.trace(H)) / n, 1.0)
    try:
        return solve(H)
    except np.linalg.LinAlgError:
        pass
    for _ in range(12):
        H = hessian()
        H[np.diag_indices(n)] += lam
        try:
            return solve(H)
        except np.linalg.LinAlgError:
            lam *= 100.0
    # fully regularized fall-through: steepest descent
    return -g


def _backtrack(f: Functional, pt: _Point, free, d, slope, buffers):
    """Armijo backtracking from pt along d; the accepted point or None."""
    step = 1.0
    for _ in range(_ARMIJO_STEPS):
        trial = pt.vals.copy()
        trial[free] += step * d
        new = _Point(f, trial, buffers)
        if new.value <= pt.value + _ARMIJO_C1 * step * slope:
            return new
        step *= 0.5
    return None


def _minimize(f: Functional, x0, tol, free=None):
    """Damped Newton with Armijo backtracking on the free coordinates.

    Returns the final point and a SolveReport.  Every accepted step
    strictly decreases the objective; when neither the Newton direction
    nor steepest descent admits a decreasing step the iteration stops
    with converged=False.  Each point is priced once: the gradient and
    Hessian of an iterate come from the evaluation that accepted it.

    All points are priced into one set of buffers, the one
    ``f`` was lent or else a set owned by this call.  That is safe
    because an iterate's Hessian is always taken before the next point
    is priced; the old iterate keeps its value and gradient.
    """
    buffers = f._buffers if f._buffers is not None else _Buffers(f.K)
    pt = _Point(f, np.array(x0, dtype=float, copy=True), buffers)
    if free is None:
        free = np.ones(pt.vals.size, dtype=bool)
    # the subset copy of H costs a full pass, so skip it when all is free
    sub = None if free.all() else np.ix_(free, free)
    failures = 0
    iterations = 0
    gn = np.inf
    for _ in range(_MAX_ITER):
        gf = pt.gradient[free]
        gn = float(np.abs(gf).max()) if gf.size else 0.0
        if gn <= tol:
            return pt, SolveReport(iterations, pt.value, gn, failures, True)
        d = _solve_newton_step(
            pt.hessian if sub is None else lambda: pt.hessian()[sub], gf)
        slope = float(gf @ d)
        if slope >= 0.0:
            failures += 1
            d = -gf
            slope = float(gf @ d)
        if -slope <= 128.0 * np.finfo(float).eps * (1.0 + abs(pt.value)):
            # the predicted decrease is below the objective's roundoff,
            # so backtracking can no longer certify progress; take the
            # full step uncertified (it is tiny) and keep whichever
            # point has the smaller gradient
            trial = pt.vals.copy()
            trial[free] += d
            new = _Point(f, trial, buffers)
            gt = new.gradient[free]
            gtn = float(np.abs(gt).max()) if gt.size else 0.0
            iterations += 1
            if gtn <= gn:
                return new, SolveReport(iterations, new.value, gtn, failures,
                                        gtn <= tol)
            return pt, SolveReport(iterations, pt.value, gn, failures,
                                   gn <= tol)
        accepted = _backtrack(f, pt, free, d, slope, buffers)
        if accepted is None and not np.array_equal(d, -gf):
            # Newton direction failed the backtracking budget; retry
            # along steepest descent before giving up
            failures += 1
            accepted = _backtrack(f, pt, free, -gf, float(gf @ -gf),
                                  buffers)
        if accepted is None:
            failures += 1
            return pt, SolveReport(iterations, pt.value, gn, failures, False)
        pt = accepted
        iterations += 1
    return pt, SolveReport(iterations, pt.value, gn, failures, gn <= tol)


def _finish(f: Functional, pt: _Point, rep: SolveReport,
            tol: float) -> np.ndarray:
    """Project onto u >= 0 and report energy and residual there."""
    x = np.maximum(pt.vals, 0.0)
    if (pt.vals < 0.0).any():
        pt = f.at(x)
    rep.final_energy = pt.value
    rep.residual_norm = float(np.abs(pt.gradient).max())
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
    if not prob.K.matches(init.grid):
        raise UsageError("init lives on a different grid than the problem")
    pt, rep = _minimize(prob, init.values, tol)
    if float(pt.vals.min()) < -tol:
        rep.converged = False
    return RadialFunction(prob.grid, _finish(prob, pt, rep, tol)), rep


def _levels(params: ProblemParams, grid: RadialGrid, K: KernelMatrix,
            schedule, tol: float):
    """Minimize the levels J_n of the schedule in order; yields (u_n, report).

    The first level starts at (1 + r^2)^{-beta_star/2} and each later
    one from its predecessor's minimizer.  A level that drops below its
    predecessor by more than ``tol`` (the sequence is monotone in exact
    arithmetic) is flagged unconverged.  Every level is minimized in
    one set of buffers, dropped with the generator, by the module's
    :func:`minimize_Jn` as bound at call time, so a wrapper installed on
    ``fracp.solver.minimize_Jn`` sees every level.
    """
    vals = (1.0 + grid.nodes ** 2) ** (-params.beta_star / 2.0)
    buffers = _Buffers(K)
    for k, n in enumerate(schedule):
        prob = RegularizedProblem(params, n, grid, K)
        prob._buffers = buffers
        u, rep = minimize_Jn(prob, RadialFunction(grid, vals), tol)
        if k and float((u.values - vals).min()) < -tol:
            rep.converged = False
        yield u, rep
        vals = u.values


def solve_pure_singular(params: ProblemParams, grid: RadialGrid,
                        K: KernelMatrix, schedule, tol: float
                        ) -> tuple[RadialFunction, list]:
    """Continuation in the shift index; returns the last level's minimizer.

    The schedule must be strictly increasing and start at 1.  The levels
    are those of :func:`_levels`; the run stops early once successive
    minimizers agree within ``tol`` in sup norm, and the final level is
    flagged unconverged when the schedule runs out before that Cauchy
    criterion is met.
    """
    schedule = [int(n) for n in schedule]
    if not schedule or schedule[0] != 1:
        raise UsageError("continuation schedule must start at n=1")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise UsageError("continuation schedule must be strictly increasing")
    reports = []
    prev = None
    for u, rep in _levels(params, grid, K, schedule, tol):
        reports.append(rep)
        settled = prev is not None and bool(
            np.abs(u.values - prev.values).max() <= tol)
        prev = u
        if settled:
            break
    if not settled and len(schedule) > 1:
        reports[-1].converged = False
    return prev, reports


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
    pt, _ = _minimize(Functional(params, grid, K), x0, tol, free=free)
    return RadialFunction(grid, np.clip(pt.vals, 0.0, 1.0))


# ---------------------------------------------------------------------------
# truncated full problem


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
    pt, rep = _minimize(prob, u_bar.values, tol)
    x = _finish(prob, pt, rep, tol)
    if float((x - u_bar.values).min()) < -tol:
        rep.converged = False
    return RadialFunction(grid, x), rep
