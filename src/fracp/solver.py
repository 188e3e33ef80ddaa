"""Continuation solver for the singular reaction model.

The pure-singular solution is produced by minimizing the regularized
functionals J_n(u) = (1/p) E(u) - int a(x) F(u(x)) dx, where ``E`` is
the discrete nonlocal energy of :mod:`fracp.operator` and F is one
reaction family,

    F(t) = int_0^t f(max(tau, floor) + shift) dtau,
    f(m) = m^{-gamma} + kappa m^r.

J_n is (floor 0, shift 1/n, kappa 0): F = A_n, the primitive of the
shifted singular term ``(t_+ + 1/n)^{-gamma}``.  Each J_n is convex
(A_n is concave), so a damped Newton iteration with Armijo backtracking
finds the unique minimizer from any start; the continuation in n with
warm starts then climbs the monotone sequence u_1 <= u_2 <= ... to its
limit.  The truncated full problem is (floor u_bar, shift 0), no longer
concave for kappa > 0; there the same iteration is run with a
Levenberg shift whenever the Hessian loses definiteness, and the
resulting stationary point is accepted only if it dominates u_bar.
The capacitary barrier minimizes the bare energy.  All three are one
:class:`Functional`, and the same damped Newton iteration minimizes
each.

The reaction integral splits like the energy: nodal values weighted by
exact annulus volumes inside the truncation radius, plus a one
dimensional Jacobi rule in the scaled variable xi = R_max/r for the
power tail, where the weight contributes xi^{alpha - 1}.

Each Newton step factors the dense Hessian with LAPACK's ``dpotrf``
and solves with ``dpotrs``, both bound through ``ctypes`` from the
library ``numpy.linalg`` itself calls, so a solving process maps one
BLAS, numpy's, and imports no scipy module.

Everything here is deterministic: fixed quadrature rules, fixed
iteration order, no randomness.
"""

import ctypes
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg, lapack_lite

from .errors import DomainError, UsageError
from .grid import RadialFunction, RadialGrid
from .kernel import unit_sphere_area
from .operator import (  # noqa: F401  (fracp.solver.weak_residual is read)
    KernelMatrix,
    _Buffers,
    _require_grid,
    _require_match,
    energy_terms,
    weak_residual,
    weight_a,
)
from .params import ProblemParams
from .quadrature import gauss_jacobi_01

__all__ = [
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
# the LAPACK integer of numpy's build, and the names such a build links
# a LAPACK routine under (the Fortran name with a prefix and a suffix)
_INT = ctypes.c_int64 if lapack_lite._ilp64 else ctypes.c_int
_SYMBOLS = (("scipy_{}_64_", "{}_64_") if lapack_lite._ilp64
            else ("scipy_{}_", "{}_"))


def _lapack(library: str, name: str, *argtypes):
    """LAPACK's ``name`` from the library that ``numpy.linalg`` calls.

    ``library`` is the file of ``numpy.linalg._umath_linalg``; a lookup
    through its handle also searches the LAPACK it links, so the Newton
    step factors with the library numpy already mapped and no second
    BLAS is loaded.  ``argtypes`` are the Fortran arguments; the hidden
    length of the one character argument follows them.
    """
    lib = ctypes.CDLL(library)
    tried = [form.format(name) for form in _SYMBOLS]
    for symbol in tried:
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes = [*argtypes, ctypes.c_size_t]
            fn.restype = None
            return fn
    raise ImportError(f"fracp.solver needs LAPACK's {name}; {library} "
                      f"exports none of {', '.join(tried)}", path=library)


_P = ctypes.POINTER(_INT)
# dpotrf(uplo, n, a, lda, info); dpotrs(uplo, n, nrhs, a, lda, b, ldb, info)
_potrf = _lapack(_umath_linalg.__file__, "dpotrf",
                 ctypes.c_char_p, _P, ctypes.c_void_p, _P, _P)
_potrs = _lapack(_umath_linalg.__file__, "dpotrs",
                 ctypes.c_char_p, _P, _P, ctypes.c_void_p, _P,
                 ctypes.c_void_p, _P, _P)


# ---------------------------------------------------------------------------
# reaction primitives


class _Reaction:
    """F(t) = int_0^t f(max(tau, floor) + shift) dtau with f(m) = m^{-gamma}
    + kappa m^r, and its first and second derivatives in t.

    ``floor`` is an argument (a scalar or one value per point); below
    it F is linear with slope f(floor + shift).  With kappa = 0 no
    growth term is computed, so r may be None.
    """

    def __init__(self, gamma, shift=0.0, kappa=0.0, r_exp=None):
        self.gamma, self.shift, self.kappa, self.r = gamma, shift, kappa, r_exp

    def f(self, m):
        out = m ** -self.gamma
        if self.kappa > 0.0:
            out = out + self.kappa * m ** self.r
        return out

    def F(self, t, floor):
        g, kappa, r = self.gamma, self.kappa, self.r
        t = np.asarray(t, dtype=float)
        lo = floor + self.shift
        m = np.maximum(t, floor) + self.shift
        slope = self.f(lo)
        above = (floor * slope
                 + (m ** (1.0 - g) - lo ** (1.0 - g)) / (1.0 - g))
        if kappa > 0.0:
            above = (above
                     + kappa * (m ** (1.0 + r) - lo ** (1.0 + r)) / (1.0 + r))
        return np.where(t <= floor, t * slope, above)

    def dF(self, t, floor):
        return self.f(np.maximum(t, floor) + self.shift)

    def d2F(self, t, floor):
        g, r = self.gamma, self.r
        m = np.maximum(t, floor) + self.shift
        out = -g * m ** (-g - 1.0)
        if self.kappa > 0.0:
            out = out + self.kappa * r * m ** (r - 1.0)
        return np.where(t > floor, out, 0.0)


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
    return wT, xi ** bt


# ---------------------------------------------------------------------------
# the functional


class Functional:
    """J(u) = (1/p) E(u) - int a(x) F(u(x)) dx on a fixed grid.

    ``reaction`` is a :class:`_Reaction`, priced at ``floor``: 0, or the
    nodal shield of the truncated problem.  Without a reaction the
    functional is the bare energy.  The reaction integral is the nodal
    sum against exact annulus volumes plus the Jacobi tail rule, where
    the floor follows the values along the power tail.
    """

    def __init__(self, params: ProblemParams, grid: RadialGrid,
                 K: KernelMatrix, reaction=None, floor=0.0):
        _require_grid(grid, K)
        _require_match(K, params)
        self.params = params
        self.grid = grid
        self.K = K
        self._reaction = reaction
        self._floor = floor
        self._omega = grid.volume_weights(params.N)
        self._a = weight_a(grid.nodes, params)
        self._wT, self._gT = _reaction_tail_rule(params, grid)
        self._floor_T = np.ravel(floor)[-1] * self._gT
        # the buffer set a continuation lends every level it minimizes;
        # None outside one, and then each minimization allocates its own
        self._buffers = None

    def at(self, vals: np.ndarray) -> "_Point":
        """The functional at ``vals``: J, J' and J'' from one energy pass."""
        return _Point(self, vals)

    def reaction(self, vals: np.ndarray) -> np.ndarray:
        """Nodal right-hand side a(r) F'(u) at the values (with a reaction)."""
        return self._a * self._reaction.dF(vals, self._floor)


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
                                   buffers=buffers)
        self.value = self._terms.energy / f.params.p
        self.gradient = g = self._terms.residual()
        rho = f._reaction
        if rho is None:
            return
        tail_vals = vals[-1] * f._gT
        body = float((f._omega * f._a * rho.F(vals, f._floor)).sum())
        tail = float((f._wT * rho.F(tail_vals, f._floor_T)).sum())
        self.value = self.value - body - tail
        g -= f._omega * f._a * rho.dF(vals, f._floor)
        g[-1] -= float((f._wT * f._gT * rho.dF(tail_vals, f._floor_T)).sum())

    def hessian(self) -> np.ndarray:
        """J'' at the point, in the flux buffer of its evaluation."""
        f, vals = self.f, self.vals
        H = self._terms.hessian()
        rho = f._reaction
        if rho is not None:
            H[np.diag_indices_from(H)] -= (
                f._omega * f._a * rho.d2F(vals, f._floor))
            H[-1, -1] -= float((f._wT * f._gT ** 2
                                * rho.d2F(vals[-1] * f._gT, f._floor_T)).sum())
        return H


class RegularizedProblem(Functional):
    """One level of the continuation: J_n, F at (floor 0, shift 1/n)."""

    def __init__(self, params: ProblemParams, n: int, grid: RadialGrid,
                 K: KernelMatrix):
        if int(n) != n or n < 1:
            raise UsageError(f"n={n}: the shift index must be a "
                             "positive integer")
        self.n = n = int(n)
        super().__init__(params, grid, K, _Reaction(params.gamma, 1.0 / n))


class TruncatedProblem(Functional):
    """The truncated full problem: F at (floor u_bar, shift 0)."""

    def __init__(self, params: ProblemParams, grid: RadialGrid,
                 K: KernelMatrix, u_bar: RadialFunction, kappa: float):
        params.check_kappa(kappa)
        _require_grid(u_bar.grid, K, "u_bar lives on a different grid than "
                      "the kernel matrix")
        if float(u_bar.values.min()) <= 0.0:
            raise DomainError("u_bar must be strictly positive at every node")
        super().__init__(params, grid, K, _Reaction(
            params.gamma, 0.0, kappa, params.r_exp), floor=u_bar.values)


@dataclass
class SolveReport:
    iterations: int
    final_energy: float
    residual_norm: float
    line_search_failures: int
    converged: bool


# ---------------------------------------------------------------------------
# damped Newton core


def _cholesky_solve(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """H^{-1} g for a symmetric H, factored in place by LAPACK.

    ``dpotrf`` factors H on its lower-triangle path, which overwrites
    the lower triangle of H.T, H's upper one; ``dpotrs`` then solves
    with the factor.  The factor is the one ``np.linalg.cholesky``
    computes, bit for bit: both call the same routine of the same
    library.  A non-positive leading minor raises
    ``np.linalg.LinAlgError``; an illegal argument to either routine
    raises ValueError.
    """
    n = H.shape[0]
    # LAPACK reads H through a pointer: it must be one C-ordered block
    # of doubles, which H.T is in the Fortran order LAPACK works in (H
    # is symmetric, so H.T is H); the lower-triangle path factors it
    # faster than the upper one
    if not (H.dtype == np.float64 and H.shape == (n, n)
            and g.shape == (n,) and H.flags.c_contiguous
            and H.flags.writeable):
        raise ValueError(f"the Newton system needs a writable C-ordered "
                         f"float64 n x n matrix and n values, not a "
                         f"{H.dtype} {H.shape} matrix and {g.shape} values")
    x = np.array(g, dtype=np.float64)   # dpotrs overwrites it
    size, lda, info = _INT(n), _INT(max(n, 1)), _INT()
    _potrf(b"L", size, H.ctypes.data, lda, info, 1)
    if info.value > 0:
        raise np.linalg.LinAlgError(f"{info.value}-th leading minor of the "
                                    "array is not positive definite")
    if info.value == 0:
        _potrs(b"L", size, _INT(1), H.ctypes.data, lda, x.ctypes.data, lda,
               info, 1)
    if info.value < 0:
        raise ValueError(f"LAPACK's dpotrf or dpotrs reported an illegal "
                         f"value in argument {-info.value}")
    return x


def _solve_newton_step(hessian, g: np.ndarray) -> np.ndarray:
    """Direction -H^{-1} g, shifting the diagonal when H is not SPD.

    ``hessian()`` returns the symmetric H in a work array, which
    :func:`_cholesky_solve` factors in place, so a failed factorization
    leaves H overwritten and every shifted retry asks for it again.  A
    non-finite entry of H or g raises ValueError.
    """
    H = hessian()
    # one reduction over H instead of scans of H, its factor and g: a
    # NaN or inf anywhere leaves the sum non-finite (so would a sum that
    # overflows, far beyond any Hessian of a solve)
    if not (np.isfinite(H.sum()) and np.isfinite(g).all()):
        raise ValueError("the Newton system holds infs or NaNs")
    n = H.shape[0]
    lam = 1e-10 * max(float(np.trace(H)) / n, 1.0)
    try:
        return -_cholesky_solve(H, g)
    except np.linalg.LinAlgError:
        pass
    for _ in range(12):
        H = hessian()
        H[np.diag_indices(n)] += lam
        try:
            return -_cholesky_solve(H, g)
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


def _sup(g: np.ndarray) -> float:
    return float(np.abs(g).max()) if g.size else 0.0


def _minimize(f: Functional, x0, tol, free=None):
    """Damped Newton with Armijo backtracking on the free coordinates.

    Returns the final point and a SolveReport of that point: its free
    gradient's sup norm, converged when that norm is <= tol.  Every
    accepted step strictly decreases the objective; when neither the
    Newton direction nor steepest descent admits a decreasing step the
    iteration stops there.  Each point is priced once: the gradient and
    Hessian of an iterate come from the evaluation that accepted it.

    All points are priced into one set of buffers, the one
    ``f`` was lent or else a set owned by this call.  That is safe
    because an iterate's Hessian is always taken before the next point
    is priced; the old iterate keeps its value and gradient.
    """
    if not tol > 0.0:
        raise UsageError(f"tol={tol:g}: tolerance must be positive")
    buffers = f._buffers if f._buffers is not None else _Buffers(f.K)
    pt = _Point(f, np.array(x0, dtype=float, copy=True), buffers)
    if free is None:
        free = np.ones(pt.vals.size, dtype=bool)
    # the subset copy of H costs a full pass, so skip it when all is free
    sub = None if free.all() else np.ix_(free, free)
    failures = 0
    iterations = 0
    for _ in range(_MAX_ITER):
        gf = pt.gradient[free]
        gn = _sup(gf)
        if gn <= tol:
            break
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
            iterations += 1
            if _sup(new.gradient[free]) <= gn:
                pt = new
            break
        accepted = _backtrack(f, pt, free, d, slope, buffers)
        if accepted is None and not np.array_equal(d, -gf):
            # Newton direction failed the backtracking budget; retry
            # along steepest descent before giving up
            failures += 1
            accepted = _backtrack(f, pt, free, -gf, float(gf @ -gf),
                                  buffers)
        if accepted is None:
            failures += 1
            break
        pt = accepted
        iterations += 1
    gn = _sup(pt.gradient[free])
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
    _require_grid(init.grid, prob.K, "init lives on a different grid than "
                  "the problem")
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
    R need not be a node: the solve is the one at the largest node
    r_k <= R, bit for bit.  The minimizer is returned as solved, not
    clipped: the comparison principle puts it in [0, 1].
    """
    if not 0.0 < R < grid.R_max / 4.0:
        raise UsageError(
            f"R={R:g}: the plateau radius must sit in (0, R_max/4) "
            f"= (0, {grid.R_max / 4.0:g}) to leave room for the decay")
    k = int(np.searchsorted(grid.nodes, R, side="right")) - 1
    if k == 0:
        raise UsageError(
            f"R={R:g} lies below the first node r_1 = {grid.nodes[1]:g} "
            f"after the origin, so the plateau would hold the origin alone")
    free = np.ones(grid.nodes.size, dtype=bool)
    free[:k + 1] = False
    x0 = np.ones(grid.nodes.size)
    decay = (grid.nodes[k + 1:] / grid.nodes[k]) ** -params.beta_star
    x0[k + 1:] = np.minimum(1.0, decay)
    pt, _ = _minimize(Functional(params, grid, K), x0, tol, free=free)
    return RadialFunction(grid, pt.vals)


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
    prob = TruncatedProblem(params, grid, K, u_bar, kappa)
    pt, rep = _minimize(prob, u_bar.values, tol)
    x = _finish(prob, pt, rep, tol)
    if float((x - u_bar.values).min()) < -tol:
        rep.converged = False
    return RadialFunction(grid, x), rep
