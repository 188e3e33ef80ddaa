"""Continuation solver against closed forms and a coordinate-descent oracle.

GOLD_CD_OBJECTIVE was produced by an independent cyclic coordinate
descent run (Brent line minimization per node, sup-change <= 1e-9, with
the tail reaction integral done by adaptive quadrature instead of the
solver's fixed Jacobi rule) on the instance named in the fixture
below.  The remaining goldens are direct antiderivative evaluations.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from fracp.analysis import (check_capacitary, comparison_check,
                            fundamental_residual, grid_crc,
                            write_solution_csv)
from fracp.config import SolverSettings
from fracp.errors import DomainError, UsageError
from fracp.grid import (RadialGrid, RadialFunction, grid_difference,
                        make_radial_grid)
from fracp.params import ProblemParams
from fracp import operator as op
from fracp import solver as sv

GOLD_CD_OBJECTIVE = -0.08337093294811329


@pytest.fixture(scope="module")
def p2():
    return ProblemParams(N=3, s=0.5, p=2.0, gamma=0.5, alpha=1.5, c_a=1.0)


@pytest.fixture(scope="module")
def p25():
    return ProblemParams(N=3, s=0.5, p=2.5, gamma=0.5, alpha=29.0 / 24.0,
                         r_exp=1.2)


@pytest.fixture(scope="module")
def inst2(p2):
    grid = make_radial_grid(tail_exponent=p2.beta_star, R_max=64.0, M=48,
                            grading=1.05)
    return grid, op.assemble(grid, p2)


@pytest.fixture(scope="module")
def inst25(p25):
    grid = make_radial_grid(tail_exponent=p25.beta_star, R_max=64.0, M=48,
                            grading=1.05)
    return grid, op.assemble(grid, p25)


@pytest.fixture(scope="module")
def inst_oracle(p2):
    grid = make_radial_grid(tail_exponent=p2.beta_star, R_max=64.0, M=32,
                            grading=1.05)
    return grid, op.assemble(grid, p2)


def _A(t, n, gamma):
    """A_n(t) = int_0^t (tau_+ + 1/n)^{-gamma}: the reaction family at
    floor 0 and shift 1/n, the primitive of J_n."""
    return sv._Reaction(gamma, 1.0 / n).F(t, 0.0)


def test_a_primitive_goldens():
    assert _A(0.0, 7, 0.3) == 0.0
    assert _A(1.0, 1, 0.5) == pytest.approx(
        2.0 * (math.sqrt(2.0) - 1.0), rel=1e-15)
    # below zero the integrand is the constant n^gamma
    assert _A(-3.0, 4, 0.5) == pytest.approx(-6.0, rel=1e-15)
    t = np.array([-1.0, 0.0, 0.5, 2.0])
    vec = _A(t, 3, 0.25)
    for ti, vi in zip(t, vec):
        assert vi == pytest.approx(_A(float(ti), 3, 0.25), rel=1e-15)


def test_a_primitive_envelope_bound():
    # A(t,n,gamma) <= |t|^{1-gamma} / (1-gamma) for every shift
    rng = np.random.default_rng(20240811)
    t = rng.uniform(-10.0, 10.0, size=100000)
    n = rng.integers(1, 1000, size=t.size)
    gam = rng.uniform(0.01, 0.99, size=t.size)
    vals = np.array([_A(ti, int(ni), gi)
                     for ti, ni, gi in zip(t[:200], n[:200], gam[:200])])
    bound = np.abs(t[:200]) ** (1.0 - gam[:200]) / (1.0 - gam[:200])
    assert np.all(vals <= bound + 1e-12)
    # vectorized sweep over the full sample at a fixed shift
    for nn in (1, 7, 512):
        v = _A(t, nn, 0.5)
        b = np.abs(t) ** 0.5 / 0.5
        assert np.all(v <= b + 1e-12)


def test_a_primitive_continuity_and_monotonicity():
    eps = 1e-12
    assert abs(_A(eps, 5, 0.4) - _A(-eps, 5, 0.4)) < 1e-10
    t = np.linspace(-2.0, 2.0, 4001)
    v = _A(t, 5, 0.4)
    assert np.all(np.diff(v) > 0.0)


def _reaction_oracle(t, floor, shift, gamma, kappa, r):
    """F(t), F'(t) and F''(t) of the family, from f and f' written out
    here and, for F, scipy's quad split at the floor.  Above the floor
    quad runs in u = log(tau + shift), which leaves no endpoint
    singularity for its extrapolation to misjudge."""
    def f(m):
        return m ** -gamma + (kappa * m ** r if kappa > 0.0 else 0.0)

    def f_prime(m):
        return (-gamma * m ** (-gamma - 1.0)
                + (kappa * r * m ** (r - 1.0) if kappa > 0.0 else 0.0))

    def piece(a, b):
        if b <= floor:
            return quad(lambda tau: f(max(tau, floor) + shift), a, b)[0]
        return quad(lambda u: f(math.exp(u)) * math.exp(u),
                    math.log(a + shift), math.log(b + shift),
                    epsabs=0.0, epsrel=1e-13)[0]

    cuts = sorted({0.0, t, min(max(floor, min(0.0, t)), max(0.0, t))})
    area = sum(piece(a, b) for a, b in zip(cuts, cuts[1:]))
    m = max(t, floor) + shift
    return (area if t >= 0.0 else -area), f(m), \
        (f_prime(m) if t > floor else 0.0)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(gamma=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
       kappa=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       r=st.floats(1.0, 1.5, exclude_min=True, exclude_max=True),
       floor=st.one_of(st.just(0.0), st.floats(2.0 ** -14, 2.0)),
       shift=st.one_of(st.just(0.0), st.floats(2.0 ** -14, 1.0)),
       t=st.floats(-2.0, 4.0, allow_subnormal=False))
def test_reaction_family_matches_quadrature_and_written_out_f(
        gamma, kappa, r, floor, shift, t):
    # F(t) = int_0^t f(max(tau, floor) + shift) dtau with f(m) = m^-gamma
    # + kappa m^r, against an independent oracle; with kappa = 0 the
    # family never reads r
    assume(floor + shift > 0.0)
    rho = sv._Reaction(gamma, shift, kappa, r if kappa > 0.0 else None)
    F, dF, d2F = _reaction_oracle(t, floor, shift, gamma, kappa, r)
    assert float(rho.F(t, floor)) == pytest.approx(F, rel=1e-9, abs=1e-12)
    assert float(rho.dF(t, floor)) == pytest.approx(dF, rel=1e-13)
    assert float(rho.d2F(t, floor)) == pytest.approx(d2F, rel=1e-13)


def test_regularized_problem_validation(p2, inst2, inst_oracle):
    grid, K = inst2
    other_grid, other_K = inst_oracle
    with pytest.raises(UsageError):
        sv.RegularizedProblem(p2, 0, grid, K)
    with pytest.raises(UsageError):
        sv.RegularizedProblem(p2, 1, grid, other_K)
    wrong = ProblemParams(N=3, s=0.4, p=2.0, gamma=0.5, alpha=1.2)
    with pytest.raises(UsageError):
        sv.RegularizedProblem(wrong, 1, grid, K)


def test_minimize_matches_coordinate_descent_oracle(p2, inst_oracle):
    grid, K = inst_oracle
    prob = sv.RegularizedProblem(p2, 1, grid, K)
    init = RadialFunction(grid, (1.0 + grid.nodes ** 2) ** -1.0)
    u, rep = sv.minimize_Jn(prob, init, 1e-9)
    assert rep.converged
    assert rep.residual_norm <= 1e-9
    assert abs(rep.final_energy - GOLD_CD_OBJECTIVE) <= 1e-6
    assert u.values.min() >= 0.0


def test_minimizer_prices_each_point_once(p25, inst25, monkeypatch):
    # the energy pass is the expensive part of a Newton step: the gradient
    # and Hessian of an accepted trial must come from the pass that
    # accepted it, so no point is handed to energy_terms twice
    grid, K = inst25
    priced = []
    real = sv.energy_terms

    def counting(u, K, **kw):
        priced.append(u.values.tobytes())
        return real(u, K, **kw)

    monkeypatch.setattr(sv, "energy_terms", counting)
    prob = sv.RegularizedProblem(p25, 4, grid, K)
    init = RadialFunction(grid, (1.0 + grid.nodes ** 2) ** -1.0)
    u, rep = sv.minimize_Jn(prob, init, 1e-9)
    assert rep.converged and rep.iterations >= 3
    assert len(priced) == len(set(priced))
    assert len(priced) >= rep.iterations + 1


@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_minimize_reports_the_point_it_returns(p25, inst25, monkeypatch,
                                               max_iter):
    # a solve cut short by its iteration cap reports the gradient norm of
    # the point it returns, not of the iterate before it
    grid, K = inst25
    prob = sv.RegularizedProblem(p25, 1, grid, K)
    x0 = (1.0 + grid.nodes ** 2) ** (-0.5 * p25.beta_star)
    monkeypatch.setattr(sv, "_MAX_ITER", max_iter)
    pt, rep = sv._minimize(prob, x0, 1e-14)
    assert rep.iterations == max_iter and not rep.converged
    assert rep.final_energy == pt.value
    assert rep.residual_norm == float(np.abs(pt.gradient).max())


def test_minimize_converged_on_its_last_allowed_step(p25, inst25,
                                                     monkeypatch):
    # the step that reaches the tolerance may be the last one allowed
    grid, K = inst25
    prob = sv.RegularizedProblem(p25, 1, grid, K)
    x0 = (1.0 + grid.nodes ** 2) ** (-0.5 * p25.beta_star)
    _, full = sv._minimize(prob, x0, 1e-6)
    assert full.converged
    monkeypatch.setattr(sv, "_MAX_ITER", full.iterations)
    _, rep = sv._minimize(prob, x0, 1e-6)
    assert rep.converged and rep.iterations == full.iterations
    assert rep.residual_norm == full.residual_norm


def test_newton_step_allocates_no_full_size_array(p25, monkeypatch):
    # a running solve prices, builds and factors in its own buffers, so
    # one further Newton step (Hessian, factorization, backtracking, the
    # next gradient) holds less than one (M+1)^2 float array at a time;
    # numpy reports its data buffers to tracemalloc.  At M = 64 the node
    # pairs are one block
    assert list(op._pair_blocks(65)) == [(0, 65)]
    _check_newton_step_allocations(p25, monkeypatch)


def test_newton_step_in_row_blocks_allocates_no_full_size_array(p25,
                                                                monkeypatch):
    # the same with the node pairs priced in row blocks of 8 to 25 rows,
    # each Hessian block built in the shared work arrays
    monkeypatch.setattr(op, "_PAIR_BLOCK", 8 * 65)
    assert len(list(op._pair_blocks(65))) == 5
    _check_newton_step_allocations(p25, monkeypatch)


def _check_newton_step_allocations(p25, monkeypatch):
    grid = make_radial_grid(tail_exponent=p25.beta_star, R_max=64.0, M=64,
                            grading=1.05)
    K = op.assemble(grid, p25)
    full = 8 * grid.nodes.size ** 2
    marks = []
    real = sv._solve_newton_step

    def step(hessian, g):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return real(hessian, g)

    monkeypatch.setattr(sv, "_solve_newton_step", step)
    prob = sv.RegularizedProblem(p25, 4, grid, K)
    init = RadialFunction(grid, (1.0 + grid.nodes ** 2) ** -1.0)
    tracemalloc.start()
    try:
        _, rep = sv.minimize_Jn(prob, init, 1e-9)
    finally:
        tracemalloc.stop()
    assert rep.converged and len(marks) >= 3
    for (current, _), (_, peak) in zip(marks, marks[1:]):
        assert peak - current < full


def test_newton_step_shifts_until_the_factorization_succeeds():
    # an indefinite H fails the plain Cholesky; the step is the direction
    # of the first shift lam0 100^k, lam0 = 1e-10 max(tr H / n, 1), that
    # makes H + lam I positive definite.  The builder refills one work
    # array as a solve's Hessian does, so a retry that factored what a
    # failed factorization left behind would miss the oracle
    rng = np.random.default_rng(8)
    n = 40
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H0 = (Q * np.linspace(-0.5, 10.0, n)) @ Q.T
    H0 = 0.5 * (H0 + H0.T)
    g = rng.standard_normal(n)
    work = np.empty_like(H0)
    builds = []

    def hessian():
        builds.append(1)
        np.copyto(work, H0)
        return work

    d = sv._solve_newton_step(hessian, g)
    lam, shifts = 1e-10 * max(np.trace(H0) / n, 1.0), 1
    while np.linalg.eigvalsh(H0 + lam * np.eye(n)).min() <= 0.0:
        lam, shifts = 100.0 * lam, shifts + 1
    assert 3 <= shifts < 12
    assert len(builds) == 1 + shifts
    assert not np.array_equal(work, H0)   # factored in place
    ref = np.linalg.solve(H0 + lam * np.eye(n), -g)
    assert np.abs(d - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("where", ["H", "g"])
def test_newton_step_refuses_a_non_finite_system(where):
    # the factorization skips scipy's finiteness scans; one check must
    # still see every entry: here a single NaN off-diagonal pair of an SPD
    # H (its diagonal stays finite), or a NaN in g
    rng = np.random.default_rng(3)
    n = 12
    A = rng.standard_normal((n, n))
    H0 = A @ A.T + n * np.eye(n)
    g = rng.standard_normal(n)
    if where == "H":
        H0[3, 7] = H0[7, 3] = np.nan
    else:
        g[5] = np.nan
    assert np.all(np.isfinite(np.diag(H0)))
    with pytest.raises(ValueError):
        sv._solve_newton_step(lambda: H0.copy(), g)


def test_capacitary_newton_steps_solve_the_free_block(p2, inst2,
                                                      monkeypatch):
    # the capacitary solve fixes the plateau nodes; each Newton step must
    # solve the Hessian restricted to the free nodes
    grid, K = inst2
    real = sv._solve_newton_step
    seen = []

    def step(hessian, g):
        H0 = hessian().copy()
        d = real(hessian, g)
        seen.append((H0, g.copy(), d))
        return d

    monkeypatch.setattr(sv, "_solve_newton_step", step)
    sv.solve_capacitary(1.0, p2, grid, K, tol=1e-9)
    n_free = int((grid.nodes > 1.0).sum())
    assert seen
    for H0, g, d in seen:
        assert H0.shape == (n_free, n_free)
        ref = np.linalg.solve(H0, -g)
        assert np.abs(d - ref).max() <= 1e-10 * np.abs(ref).max()


def _cho_step(H0: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The Newton step through scipy.linalg's public Cholesky path."""
    from scipy.linalg import cho_factor, cho_solve
    return -cho_solve(cho_factor(H0.copy().T, lower=True, overwrite_a=True,
                                 check_finite=False), g, check_finite=False)


@pytest.mark.parametrize("n", [17, 129, 257, 513])
def test_newton_step_matches_scipy_cho_solve_bitwise(n):
    # the step calls LAPACK's dpotrf/dpotrs with the arguments
    # cho_factor/cho_solve pass, so it must be theirs to the last bit
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    H0 = A @ A.T + n * np.eye(n)
    g = rng.standard_normal(n)
    d = sv._solve_newton_step(lambda: H0.copy(), g)
    assert d.tobytes() == _cho_step(H0, g).tobytes()


def test_capacitary_newton_steps_match_scipy_cho_solve_bitwise(p2, inst2,
                                                               monkeypatch):
    # the same on the free-block copies of H a capacitary solve factors
    grid, K = inst2
    real = sv._solve_newton_step
    seen = []

    def step(hessian, g):
        H0 = hessian().copy()
        d = real(hessian, g)
        seen.append(d.tobytes() == _cho_step(H0, g).tobytes())
        return d

    monkeypatch.setattr(sv, "_solve_newton_step", step)
    sv.solve_capacitary(1.0, p2, grid, K, tol=1e-9)
    assert seen and all(seen)


def test_cholesky_solve_names_the_failing_leading_minor():
    # a 3x3 leading block that is not positive definite: dpotrf stops at
    # the third pivot, and the error is the LinAlgError the shift loop
    # catches
    H = np.diag([4.0, 2.0, -1.0, 5.0])
    with pytest.raises(np.linalg.LinAlgError, match="^3-th leading minor"):
        sv._cholesky_solve(H, np.ones(4))


@pytest.mark.parametrize("routine", ["_potrf", "_potrs"])
def test_cholesky_solve_refuses_an_illegal_argument(routine, monkeypatch):
    # LAPACK's info < 0 names an illegal argument; it is no failed
    # factorization, so it must not reach the shift loop as one
    real = getattr(sv, routine)
    monkeypatch.setattr(sv, routine,
                        lambda *a, **kw: (real(*a, **kw)[0], -2))
    H = np.eye(3) * 2.0
    with pytest.raises(ValueError, match="illegal value in argument 2$"):
        sv._solve_newton_step(lambda: H.copy(), np.ones(3))


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(os.path.abspath(sv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_scipy_linalg_imports_after_the_solver_and_shares_its_lapack():
    # the solver loads scipy's LAPACK wrappers by file; a later import of
    # scipy.linalg in the same process must work, reuse that module, and
    # factor to the same bits
    code = """
import numpy as np
import fracp.solver as sv
import scipy.linalg
assert sv._potrf is scipy.linalg.lapack.dpotrf
assert sv._potrs is scipy.linalg.lapack.dpotrs
rng = np.random.default_rng(5)
A = rng.standard_normal((64, 64))
H = A @ A.T + 64.0 * np.eye(64)
c, _ = scipy.linalg.cho_factor(H.copy().T, lower=True, check_finite=False)
f, info = sv._potrf(H.copy().T, lower=1, clean=0, overwrite_a=1)
assert info == 0 and c.tobytes() == f.tobytes()
print("ok")
"""
    res = _run_fresh(code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["ok"]


def test_solver_import_names_the_directory_when_lapack_is_missing():
    # no fallback: without the wrapper module the import fails, and says
    # where it looked
    code = """
import importlib.machinery as m
import importlib.util
import os
real = m.PathFinder.find_spec
m.PathFinder.find_spec = classmethod(
    lambda cls, name, path=None, target=None:
    None if name == "scipy.linalg._flapack" else real(name, path, target))
where = os.path.join(
    importlib.util.find_spec("scipy").submodule_search_locations[0],
    "linalg")
try:
    import fracp.solver
except ImportError as exc:
    assert exc.name == "scipy.linalg._flapack", exc.name
    assert where in str(exc), (where, str(exc))
    print("ImportError")
"""
    res = _run_fresh(code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["ImportError"]


def test_minimizer_beats_zero_and_init(p2, inst_oracle):
    grid, K = inst_oracle
    prob = sv.RegularizedProblem(p2, 1, grid, K)
    init = RadialFunction(grid, np.full(grid.nodes.size, 0.3))
    u, rep = sv.minimize_Jn(prob, init, 1e-9)
    assert rep.final_energy <= 0.0
    assert rep.final_energy <= prob.at(init.values).value


def test_minimizer_independent_of_init(p2, inst_oracle):
    grid, K = inst_oracle
    prob = sv.RegularizedProblem(p2, 1, grid, K)
    tol = 1e-10
    u_a, _ = sv.minimize_Jn(
        prob, RadialFunction(grid, np.full(grid.nodes.size, 0.5)), tol)
    u_b, _ = sv.minimize_Jn(
        prob, RadialFunction(grid, (1.0 + grid.nodes) ** -2.0), tol)
    assert np.abs(u_a.values - u_b.values).max() <= 5.0 * tol


def test_zero_forcing_gives_zero_minimizer(inst_oracle):
    # degenerate weight amplitude: with a essentially zero the convex
    # functional is minimized by the zero profile with zero energy (the
    # params type requires c_a > 0, so the smallest positive double
    # stands in for the a == 0 instance)
    grid, _ = inst_oracle
    tiny = ProblemParams(N=3, s=0.5, p=2.0, gamma=0.5, alpha=1.5, c_a=1e-300)
    K = op.assemble(grid, tiny)
    prob = sv.RegularizedProblem(tiny, 1, grid, K)
    init = RadialFunction(grid, np.full(grid.nodes.size, 0.2))
    u, rep = sv.minimize_Jn(prob, init, 1e-12)
    assert rep.converged
    assert np.abs(u.values).max() <= 1e-10
    assert abs(rep.final_energy) <= 1e-20


def test_jn_convexity(p2, inst2):
    grid, K = inst2
    prob = sv.RegularizedProblem(p2, 3, grid, K)
    rng = np.random.default_rng(55)
    for _ in range(10):
        u = rng.standard_normal(grid.nodes.size) * 0.1
        v = rng.standard_normal(grid.nodes.size) * 0.1
        lam = rng.uniform(0.05, 0.95)
        J_u, J_v = prob.at(u).value, prob.at(v).value
        lhs = prob.at(lam * u + (1.0 - lam) * v).value
        rhs = lam * J_u + (1.0 - lam) * J_v
        scale = abs(J_u) + abs(J_v) + 1.0
        assert lhs <= rhs + 1e-10 * scale


def test_jn_gradient_consistency(p2, inst2):
    grid, K = inst2
    prob = sv.RegularizedProblem(p2, 2, grid, K)
    rng = np.random.default_rng(12)
    vals = np.abs(rng.standard_normal(grid.nodes.size)) * 0.05 + 0.02
    g = prob.at(vals).gradient
    eps = 1e-7
    for _ in range(5):
        d = rng.standard_normal(vals.size)
        d /= np.linalg.norm(d)
        fd = (prob.at(vals + eps * d).value
              - prob.at(vals - eps * d).value) / (2.0 * eps)
        assert float(g @ d) == pytest.approx(fd, rel=5e-6)


def test_pure_singular_monotone_levels(p2, inst2):
    grid, K = inst2
    init = RadialFunction(grid, np.full(grid.nodes.size, 0.01))
    mask = grid.nodes <= 1.0
    prev = None
    prev_inner = 0.0
    for n in (1, 2, 4, 8):
        prob = sv.RegularizedProblem(p2, n, grid, K)
        u, rep = sv.minimize_Jn(prob, init, 1e-10)
        assert rep.converged
        assert u.values.min() >= 0.0
        inner = float(u.values[mask].min())
        assert inner > 0.0
        assert inner >= prev_inner - 1e-12
        if prev is not None:
            assert float((u.values - prev).min()) >= -1e-8
        prev = u.values
        prev_inner = inner


def test_pure_singular_warm_start_independence(p2, inst2):
    grid, K = inst2
    tol = 1e-10
    u_a, _ = sv.solve_pure_singular(p2, grid, K, [1, 2, 4, 8, 16], tol)
    u_b, _ = sv.solve_pure_singular(p2, grid, K, [1, 16], tol)
    assert np.abs(u_a.values - u_b.values).max() <= 5.0 * tol


def _fresh_chain(params, grid, K, schedule, tol):
    """The continuation spelled out: minimize_Jn per level, each call
    pricing into buffers of its own, warm-started from the last level."""
    vals = (1.0 + grid.nodes ** 2) ** (-params.beta_star / 2.0)
    chain = []
    for n in schedule:
        prob = sv.RegularizedProblem(params, n, grid, K)
        u, rep = sv.minimize_Jn(prob, RadialFunction(grid, vals), tol)
        chain.append((u, rep))
        vals = u.values
    return chain


@pytest.mark.parametrize("which", ["p2", "p25"])
def test_levels_with_shared_buffers_match_fresh_minimizations(which,
                                                              request):
    params = request.getfixturevalue(which)
    grid, K = request.getfixturevalue("inst" + which[1:])
    schedule = [1, 2, 4, 8, 16]
    got = list(sv._levels(params, grid, K, schedule, 1e-10))
    want = _fresh_chain(params, grid, K, schedule, 1e-10)
    assert len(got) == len(want)
    for (u, rep), (v, ref) in zip(got, want):
        assert np.array_equal(u.values, v.values)
        assert rep == ref


def test_pure_singular_settles_early_at_a_loose_tol(p2, inst2):
    # at tol 1e-3 successive levels agree within tol long before n = 4096
    grid, K = inst2
    tol = 1e-3
    schedule = sv.doubling_schedule(4096)
    u, reports = sv.solve_pure_singular(p2, grid, K, schedule, tol)
    k = len(reports)
    assert 2 <= k < len(schedule)
    assert reports[-1].converged
    chain = _fresh_chain(p2, grid, K, schedule[:k], tol)
    assert np.array_equal(u.values, chain[-1][0].values)
    assert np.abs(chain[-1][0].values - chain[-2][0].values).max() <= tol


def test_pure_singular_schedule_validation(p2, inst2):
    grid, K = inst2
    with pytest.raises(UsageError):
        sv.solve_pure_singular(p2, grid, K, [], 1e-8)
    with pytest.raises(UsageError):
        sv.solve_pure_singular(p2, grid, K, [2, 4], 1e-8)
    with pytest.raises(UsageError):
        sv.solve_pure_singular(p2, grid, K, [1, 4, 4], 1e-8)


def test_pure_singular_energy_ratio(p2, inst2):
    # the regularized minimizers stay uniformly bounded in energy along
    # the schedule; measured max/median here is about 1.38
    grid, K = inst2
    vals = np.full(grid.nodes.size, 0.01)
    es = []
    for n in (1, 2, 4, 8, 16, 32, 64, 128):
        prob = sv.RegularizedProblem(p2, n, grid, K)
        u, _ = sv.minimize_Jn(prob, RadialFunction(grid, vals), 1e-10)
        vals = u.values
        es.append(op.energy_seminorm(u, K) ** (1.0 / p2.p))
    es = np.array(es)
    assert es.max() / np.median(es) <= 2.0


def test_capacitary_profile(p2, inst2):
    grid, K = inst2
    u = sv.solve_capacitary(1.0, p2, grid, K, 1e-9)
    np.testing.assert_array_equal(u.values[grid.nodes <= 1.0], 1.0)
    assert float(np.diff(u.values).max()) <= 1e-8
    assert u.values.min() >= 0.0 and u.values.max() <= 1.0
    win = (grid.nodes >= 2.0) & (grid.nodes <= grid.R_max / 2.0)
    prod = u.values[win] * grid.nodes[win] ** p2.beta_star
    assert prod.min() > 0.05
    assert prod.max() <= p2.p ** (1.0 / (p2.p - 1.0)) * 1.05


@pytest.mark.parametrize("which", ["p2", "p25"])
def test_capacitary_potential_lies_in_the_unit_interval(which, request):
    # the comparison principle puts the minimizer between the constant
    # subsolution 0 and the constant supersolution 1; the solve returns
    # it unclipped, so this reads the minimizer itself (README grid:
    # M = 256, grading 1.03, tail exponent beta_star, solver tolerance)
    params = request.getfixturevalue(which)
    grid = make_radial_grid(tail_exponent=params.beta_star, R_max=64.0,
                            M=256, grading=1.03)
    tol = 1e-8
    u = sv.solve_capacitary(1.0, params, grid, op.assemble(grid, params),
                            tol)
    assert u.values.min() >= -tol and u.values.max() <= 1.0 + tol
    assert u.values[-1] > 0.0


def test_capacitary_plateau_between_nodes(p2, inst2):
    # R need not be a node: the nodes r <= R are pinned, so the solve is
    # the one at the largest node below R, to the last bit
    grid, K = inst2
    R = 1.37
    k = int(np.searchsorted(grid.nodes, R)) - 1
    assert grid.nodes[k] < R < grid.nodes[k + 1]
    u = sv.solve_capacitary(R, p2, grid, K, 1e-9)
    np.testing.assert_array_equal(u.values[:k + 1], 1.0)
    assert np.all(u.values[k + 1:] < 1.0)
    at_node = sv.solve_capacitary(float(grid.nodes[k]), p2, grid, K, 1e-9)
    assert u.values.tobytes() == at_node.values.tobytes()
    # so its checks measure the plateau that the solve pinned
    assert (check_capacitary(u, R, p2, stationary=True)
            == check_capacitary(at_node, grid.nodes[k], p2, stationary=True))
    assert float(np.diff(u.values).max()) <= 0.0
    assert u.values.min() >= 0.0


def test_capacitary_validation(p2, inst2):
    grid, K = inst2
    with pytest.raises(UsageError):
        sv.solve_capacitary(grid.R_max / 2.0, p2, grid, K, 1e-9)
    with pytest.raises(UsageError):
        sv.solve_capacitary(-1.0, p2, grid, K, 1e-9)
    # below the first node after the origin no plateau node is left
    with pytest.raises(UsageError, match="below the first node"):
        sv.solve_capacitary(0.5 * grid.nodes[1], p2, grid, K, 1e-9)


def test_truncated_rhs_values(p25, p2, inst25, inst2):
    grid, K = inst25
    r = grid.nodes
    floor = RadialFunction(grid, np.where(r == 0.0, 1.0, 0.7))
    prob = sv.TruncatedProblem(p25, grid, K, floor, 1.0)
    vals = np.where(r == 0.0, 2.0, 0.3)
    rhs = prob.reaction(vals)
    # weight is 1 at the origin; m = max(1, 2) = 2
    want = 2.0 ** -0.5 + 2.0 ** p25.r_exp
    assert rhs[0] == pytest.approx(want, rel=1e-15)
    # truncation active: everything at or below the shield gives the
    # same value
    k = int(np.searchsorted(r, 1.0))
    lo, mid, at = (prob.reaction(np.full(r.size, t))[k]
                   for t in (-5.0, 0.3, 0.7))
    assert lo == mid == at
    assert at == pytest.approx(op.weight_a(r[k], p25)
                               * (0.7 ** -0.5 + 0.7 ** p25.r_exp), rel=1e-15)
    # kappa = 0 drops the growth term entirely (usable at p = 2 where
    # r_exp must be None)
    grid2, K2 = inst2
    pure = sv.TruncatedProblem(p2, grid2, K2, RadialFunction(
        grid2, np.ones(grid2.nodes.size)), 0.0)
    rhs = pure.reaction(np.full(grid2.nodes.size, 2.0))
    np.testing.assert_allclose(rhs, op.weight_a(grid2.nodes, p2) * 2.0 ** -0.5,
                               rtol=1e-15)


def test_truncated_rhs_validation(p25, p2, inst25):
    # negative kappa and a negative floor are covered through solve_full
    grid, K = inst25
    n = grid.nodes.size
    one = RadialFunction(grid, np.ones(n))
    with pytest.raises(DomainError):
        sv.TruncatedProblem(p25, grid, K, RadialFunction(grid, np.zeros(n)),
                            0.5)
    with pytest.raises(DomainError):
        sv.TruncatedProblem(p25, grid, K, one, 1.2)
    with pytest.raises(UsageError, match="r_exp"):
        sv.TruncatedProblem(p2, grid, K, one, 0.5)


def test_grid_identity_is_exact(p25, inst25):
    # the oracle is the bit pattern: a grid equal to K's, made as a
    # separate object, is K's grid; a copy with one interior node moved by
    # one ulp, or with the same nodes and another tail exponent, is not,
    # and the refusal names what differs
    grid, K = inst25
    n = grid.nodes.size
    bt = grid.tail_exponent
    same = RadialGrid(nodes=grid.nodes.copy(), tail_exponent=bt)
    nodes = grid.nodes.copy()
    nodes[5] = np.nextafter(nodes[5], 0.0)
    moved = RadialGrid(nodes=nodes, tail_exponent=bt)
    other = RadialGrid(nodes=grid.nodes.copy(), tail_exponent=bt + 0.25)
    node_5 = (f"node 5 differs first: r={float(nodes[5])!r} vs "
              f"{float(grid.nodes[5])!r}")
    assert same is not K.grid and grid_difference(same, K.grid) is None
    assert grid_difference(moved, K.grid) == node_5
    assert grid_difference(other, K.grid) == (
        f"tail exponents {bt + 0.25!r} vs {bt!r}")
    u_bar = RadialFunction(grid, np.ones(n))
    sv.TruncatedProblem(p25, same, K, RadialFunction(same, np.ones(n)), 0.5)
    with pytest.raises(UsageError) as err:
        sv.TruncatedProblem(p25, moved, K, u_bar, 0.5)
    assert str(err.value) == (
        f"kernel matrix was assembled on a different grid ({node_5})")
    with pytest.raises(UsageError) as err:
        sv.TruncatedProblem(p25, other, K, u_bar, 0.5)
    assert str(err.value) == (
        "kernel matrix was assembled on a different grid (tail exponents "
        f"{bt + 0.25!r} vs {bt!r})")
    with pytest.raises(UsageError) as err:
        sv.TruncatedProblem(p25, grid, K, RadialFunction(moved, np.ones(n)),
                            0.5)
    assert str(err.value) == (
        f"u_bar lives on a different grid than the kernel matrix ({node_5})")


def test_every_grid_refusal_names_the_moved_node(p25, inst25):
    # a profile whose grid has one node moved by one ulp is refused as the
    # start of a solve and as either comparison operand, and a grid with
    # such nodes gets no derived matrix; each refusal names the node
    grid, K = inst25
    nodes = grid.nodes.copy()
    nodes[7] = np.nextafter(nodes[7], np.inf)
    moved = RadialGrid(nodes=nodes, tail_exponent=grid.tail_exponent)
    node_7 = (f"node 7 differs first: r={float(nodes[7])!r} vs "
              f"{float(grid.nodes[7])!r}")
    u = RadialFunction(grid, np.ones(grid.nodes.size))
    w = RadialFunction(moved, np.ones(grid.nodes.size))
    prob = sv.RegularizedProblem(p25, 1, grid, K)
    with pytest.raises(UsageError) as err:
        sv.minimize_Jn(prob, w, 1e-9)
    assert str(err.value) == (
        f"init lives on a different grid than the problem ({node_7})")
    region = grid.nodes > 1.0
    for a, b in ((w, u), (u, w)):
        with pytest.raises(UsageError) as err:
            comparison_check(a, b, region, K)
        assert str(err.value) == (
            f"kernel matrix was assembled on a different grid ({node_7})")
    with pytest.raises(UsageError) as err:
        op._with_tail_exponent(K, RadialGrid(nodes=nodes, tail_exponent=0.0))
    assert str(err.value) == (
        "the grid's nodes differ from the ones the kernel matrix was "
        f"assembled on ({node_7})")


def test_params_other_than_Ks_refused(p2, p25, inst25):
    # K records (N, sp, p); a problem or a profile residual that brings
    # the parameters of another instance is refused where they meet K
    grid, K = inst25
    u_bar = RadialFunction(grid, np.ones(grid.nodes.size))
    refusal = "kernel matrix was assembled for different problem parameters"
    with pytest.raises(UsageError, match=refusal):
        sv.RegularizedProblem(p2, 1, grid, K)
    with pytest.raises(UsageError, match=refusal):
        sv.TruncatedProblem(p2, grid, K, u_bar, 0.0)
    with pytest.raises(UsageError, match=refusal):
        fundamental_residual(grid.tail_exponent, p2, K)


@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_truncated_derivatives_match_finite_differences(p25, inst25, kappa):
    # central differences of the objective and of the gradient; the last
    # node carries the tail coupling, so its unit direction is checked on
    # its own.  Every value sits at least 2e-3 from the floor, because
    # F'' jumps there.
    grid, K = inst25
    r = grid.nodes
    ub = (1.0 + r ** 2) ** (-p25.beta_star / 2.0)
    prob = sv.TruncatedProblem(p25, grid, K, RadialFunction(grid, ub), kappa)
    rng = np.random.default_rng(31)
    below = (np.arange(r.size) % 3 == 0) & (r < 8.0)
    vals = ub + np.where(below, -1.0, 1.0) * rng.uniform(2e-3, 2e-2, r.size)
    pt = prob.at(vals)
    g, H = pt.gradient, pt.hessian()
    eps = 1e-6
    dirs = [np.eye(r.size)[-1]] + [rng.standard_normal(r.size)
                                   for _ in range(5)]
    for d in dirs:
        d /= np.abs(d).max()
        plus, minus = prob.at(vals + eps * d), prob.at(vals - eps * d)
        fd = (plus.value - minus.value) / (2.0 * eps)
        assert float(g @ d) == pytest.approx(fd, rel=1e-6)
        fd_g = (plus.gradient - minus.gradient) / (2.0 * eps)
        Hd = H @ d
        assert np.abs(fd_g - Hd).max() <= 1e-6 * np.abs(Hd).max()


def test_solve_full_kappa_zero_near_pure(p2, inst2):
    # with kappa = 0 the truncated problem is solved by the pure
    # singular profile up to the residual shift 1/n of the last level;
    # the gap scales like 1/n (measured 3.7e-3 at n=128 on this grid)
    grid, K = inst2
    tol = 1e-9
    ubar, _ = sv.solve_pure_singular(
        p2, grid, K, [1, 2, 4, 8, 16, 32, 64, 128], tol)
    ut, rep = sv.solve_full(p2, grid, K, ubar, 0.0, tol)
    assert rep.converged
    assert float((ut.values - ubar.values).min()) >= -1e-8
    assert np.abs(ut.values - ubar.values).max() <= 1e-2


def test_solve_full_domination_and_bound(p25, inst25):
    grid, K = inst25
    tol = 1e-7
    ubar, _ = sv.solve_pure_singular(
        p25, grid, K, [1, 2, 4, 8, 16, 32, 64, 128], tol)
    for kappa in (0.5, 1.0):
        ut, rep = sv.solve_full(p25, grid, K, ubar, kappa, tol)
        assert rep.converged
        assert float((ut.values - ubar.values).min()) >= -1e-8
        assert ut.values.max() <= 10.0 * ubar.values.max()
        assert ut.tail_amplitude > 0.0


def test_solve_full_validation(p2, p25, inst2, inst25):
    grid, K = inst2
    good = RadialFunction(grid, np.full(grid.nodes.size, 0.1))
    with pytest.raises(DomainError):
        sv.solve_full(p2, grid, K, good, 1.5, 1e-8)
    with pytest.raises(DomainError):
        sv.solve_full(p2, grid, K, good, -0.1, 1e-8)
    for floor in (0.0, -1.0):
        bad = RadialFunction(grid, np.full(grid.nodes.size, floor))
        with pytest.raises(DomainError):
            sv.solve_full(p2, grid, K, bad, 0.0, 1e-8)
    grid25, K25 = inst25
    wrong_grid = RadialFunction(grid25, np.full(grid25.nodes.size, 0.1))
    with pytest.raises(UsageError):
        sv.solve_full(p2, grid, K, wrong_grid, 0.0, 1e-8)
    with pytest.raises(UsageError):
        sv.solve_full(p2, grid, K, good, 0.5, 1e-8)   # r_exp missing


def test_write_solution_csv(tmp_path, p2, inst_oracle):
    grid, K = inst_oracle
    prob = sv.RegularizedProblem(p2, 1, grid, K)
    init = RadialFunction(grid, np.full(grid.nodes.size, 0.1))
    u, rep = sv.minimize_Jn(prob, init, 1e-9)
    rhs = prob.reaction(u.values)
    res = prob.at(u.values).gradient
    path = os.path.join(tmp_path, "sol.csv")
    settings = SolverSettings(tol=1e-9, schedule_max_n=1)
    write_solution_csv(u, p2, path, rhs=rhs, residual=res,
                       converged=rep.converged, solver=settings)
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    assert f"# grid_hash={grid_crc(grid)} " in text
    assert "converged=True solver.tol=1e-09 solver.schedule_max_n=1" in text
    lines = text.strip().split("\n")
    assert lines[2] == "r,u,a,rhs,residual"
    assert len(lines) == 3 + grid.nodes.size
    # determinism: a second write is byte-identical
    path2 = os.path.join(tmp_path, "sol2.csv")
    write_solution_csv(u, p2, path2, rhs=rhs, residual=res,
                       converged=rep.converged, solver=settings)
    with open(path2, "r", encoding="ascii") as fh:
        assert fh.read() == text
    with pytest.raises(UsageError):
        write_solution_csv(u, p2, path, rhs=rhs[:3], residual=res,
                           converged=True, solver=settings)
