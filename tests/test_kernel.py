"""Kernel constants against an independent high-precision computation.

The GOLD_* values below were produced by a 30-digit arbitrary-precision
evaluation of the angular integral, the profile-constant integral, and
the Gamma-function closed form, then rounded to double precision.  They
pin the angular exponent a = (N - 3)/2 so the kernel cannot drift
silently.
"""

import math
import os

import numpy as np
import pytest

from adaptive_quadrature import UNIT_POINTS, integrate_adaptive
from fracp.errors import DomainError
from fracp.params import ProblemParams
from fracp.quadrature import graded_points
from fracp import kernel as K

GOLD_PHI0_N3_STD = 12.566370614359173       # 4*pi
GOLD_PHI05_N3_STD = 22.3402144255274186
GOLD_PHI0_N4_STD = 19.7392088021787172     # 2*pi^2

GOLD_CBETA12_N3_STD = 12.1502075934660583
GOLD_CBETA15_P25_STD = -13.7120677614862795
GOLD_CBETA09_P25_STD = 3.59844113038368275

GOLD_LAM_12 = 0.615536707435050681
GOLD_LAM_225 = -0.517766952966368811
GOLD_CALIB_N3_S05 = 19.7392088021787172    # 2*pi^2 again, by coincidence of (3, 1/2)
GOLD_CALIB_N4_S04 = 33.9794005661988324


def _cases(*cases):
    """Parametrize (N, sp) cases with the ids "<N>-<sp>-n-3" they kept
    while a second exponent, a = (N - 2)/2, was tested beside them."""
    return [pytest.param(*case, id="-".join(map(str, case)) + "-n-3")
            for case in cases]


@pytest.fixture(scope="module")
def inst35():
    return ProblemParams.kernel_only(3, 0.5, 2.0)


def test_sphere_measures():
    assert K.unit_sphere_area(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert K.unit_sphere_area(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert K.unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    assert K.sphere_measure(3) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert K.sphere_measure(4) == pytest.approx(4.0 * math.pi, rel=1e-15)
    with pytest.raises(DomainError):
        K.sphere_measure(2)
    with pytest.raises(DomainError):
        K.unit_sphere_area(-1)


def test_angular_exponent_conventions():
    # a = (N - 3)/2, the sphere-slicing exponent
    assert K.angular_exponent(3) == 0.0
    assert K.angular_exponent(4) == 0.5


def test_edge_exponent():
    assert K.edge_exponent(3, 1.0) == pytest.approx(2.0)   # 1 + sp
    assert K.edge_exponent(4, 1.6) == pytest.approx(2.6)


def test_angular_reduction_goldens(inst35):
    assert K.angular_reduction(0.0, inst35) == \
        pytest.approx(GOLD_PHI0_N3_STD, rel=1e-12)
    assert K.angular_reduction(0.5, inst35) == \
        pytest.approx(GOLD_PHI05_N3_STD, rel=1e-12)
    P4 = ProblemParams.kernel_only(4, 0.4, 2.0)
    assert K.angular_reduction(0.0, P4) == \
        pytest.approx(GOLD_PHI0_N4_STD, rel=1e-12)


def _adaptive_edge_profile(v, N, sp):
    """Oracle: G = v^nu Phi(1 - v) by adaptive quadrature of the integral.

    Substituting u = 1 - t turns 1 - 2 t rho + rho^2 into v^2 + 2 rho u,
    which is free of cancellation near the edge.
    """
    a = K.angular_exponent(N)
    c = (N + sp) / 2.0
    rho = 1.0 - v
    v2 = v * v

    def f(u):
        return u ** a * (2.0 - u) ** a * (v2 + 2.0 * rho * u) ** (-c)

    pts = graded_points(0.0, 2.0, toward=0.0, scale=max(v2, 1e-28),
                        factor=4.0, max_panels=60)
    res = integrate_adaptive(f, pts, tol=1e-10, max_refinements=14,
                             lo_exponent=a, hi_exponent=a)
    nu = K.edge_exponent(N, sp)
    return K.sphere_measure(N) * res.value * v ** nu


@pytest.mark.parametrize("N, sp", _cases((3, 1.0), (3, 1.25), (4, 0.8),
                                         (5, 1.7)))
def test_closed_form_matches_adaptive_oracle(N, sp):
    P = ProblemParams.kernel_only(N, sp / 2.0, 2.0)
    nu = K.edge_exponent(N, sp)
    for v in np.geomspace(1e-9, 1.0, 16):
        rho = 1.0 - v
        v = 1.0 - rho  # exact: the pair (rho, v) describes one point
        got = K.angular_reduction(rho, P) * v ** nu
        want = _adaptive_edge_profile(v, N, sp)
        assert got == pytest.approx(want, rel=1e-11)
    assert K._edge_profile_exact(1.0, N, sp) == \
        pytest.approx(K.edge_limit(N, sp), rel=1e-14)


def _table_knots_z():
    """z = rho^2 at every knot of the table, guard knots included: the
    knots sit at q = sqrt(-log(1 - rho)) = k h, h = sqrt(-log _V_MIN) /
    (_KNOTS - 1), k = -2.._KNOTS + 1."""
    h = math.sqrt(-math.log(K._V_MIN)) / (K._KNOTS - 1)
    rho = 1.0 - np.exp(-(np.arange(-2, K._KNOTS + 2) * h) ** 2)
    return rho * rho


@pytest.mark.parametrize("N", _cases((3,), (4,), (5,), (6,), (7,)))
def test_hyp2f1_matches_scipy_at_the_table_knots(N):
    # scipy.special.hyp2f1 as the oracle, on the parameters of the edge
    # profile's 2F1 and at the z of every table knot; w = 1 - z is exact
    # there, so both sides see the same point
    from scipy.special import hyp2f1

    z = _table_knots_z()
    w = 1.0 - z
    a = K.angular_exponent(N)
    for sp in [0.05, 0.2, 0.5, 0.8, 1.0, 1.25, 1.5, 1.7, 2.0, 2.5, 2.99,
               1.0 - 1e-6, 1.0 + 1e-6, 2.0 - 1e-6]:
        mu = (N + sp) / 2.0
        c = a + 1.5
        A, B = c - mu, 2.0 * a + 2.0 - mu
        nu = K.edge_exponent(N, sp)
        got = K._hyp2f1(A, B, c, z, w)
        want = hyp2f1(A, B, c, z)
        rel = np.abs(got / want - 1.0)
        # next to an integer nu the connection formula's two terms grow
        # like 1/|nu - m| and cancel, and take that factor of the digits
        gap = abs(nu - round(nu))
        tol = 1e-12 if gap == 0.0 or gap > 1e-3 else 1e-14 / gap
        assert rel.max() <= tol, (sp, z[rel.argmax()])


def test_gamma_helpers_match_scipy():
    from scipy.special import gammasgn, psi, rgamma

    for x in [-3.0, -2.5, -1.0, -0.7, 0.0, 0.3, 1.0, 1.4616321449683622,
              2.5, 9.75, 10.0, 17.3, 120.0]:
        assert K._rgamma(x) == pytest.approx(rgamma(x), rel=1e-14, abs=0.0)
        if x != math.floor(x) or x > 0.0:
            assert K._gamma_sign(x) == gammasgn(x)
            # psi has a root near 1.46, so its error is absolute there
            assert K._digamma(x) == pytest.approx(psi(x), rel=1e-14,
                                                  abs=1e-15)


def test_fresh_phi_table_needs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the phi table must not call quadrature")

    monkeypatch.setattr(K, "integrate", refuse)
    monkeypatch.setattr(K, "_TABLE_CACHE", {})
    tab = K.get_phi_table(3, 1.0)
    assert float(tab.phi(0.0)) == pytest.approx(GOLD_PHI0_N3_STD, rel=1e-12)


def test_angular_reduction_domain(inst35):
    with pytest.raises(DomainError):
        K.angular_reduction(1.0, inst35)
    with pytest.raises(DomainError):
        K.angular_reduction(-0.1, inst35)


def test_angular_reduction_monotone(inst35):
    ladder = [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.99]
    vals = [K.angular_reduction(r, inst35) for r in ladder]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_edge_profile_bounded_and_limits(inst35):
    # (1 - rho)^nu * Phi stays bounded and approaches the closed form
    nu = K.edge_exponent(3, 1.0)
    g1 = K.edge_limit(3, 1.0)
    assert g1 == pytest.approx(math.pi, rel=1e-14)
    for v in [1e-2, 1e-5, 1e-9, 1e-12]:
        phi = K.angular_reduction(1.0 - v, inst35)
        g = phi * v**nu
        assert abs(g) < 2.0 * g1
    # v a power of two so 1 - (1 - v) round-trips exactly
    v = 2.0**-30
    phi_edge = K.angular_reduction(1.0 - v, inst35)
    assert phi_edge * v**2 == pytest.approx(g1, rel=1e-8)


def test_phi_table_matches_adaptive(inst35):
    tab = K.get_phi_table(3, 1.0)
    rng = np.random.default_rng(7)
    ladder = np.concatenate([
        rng.uniform(0.0, 0.99, 20),
        1.0 - np.geomspace(1e-11, 1e-2, 12),
    ])
    for r in ladder:
        direct = K.angular_reduction(float(r), inst35)
        assert float(tab.phi(float(r))) == pytest.approx(direct, rel=5e-8)


@pytest.mark.parametrize("N, sp", _cases((3, 1.0), (3, 1.25), (4, 0.8),
                                         (5, 1.7), (6, 0.05), (3, 0.2)))
def test_phi_table_dense_past_the_split(N, sp):
    # the whole table range rho in [0, 1 - 1e-12] against the closed form,
    # on both sides of rho = 1/2: an even grid, a ladder toward the edge,
    # and the interpolant alone over its whole knot range in q, so the end
    # knots and the end intervals (slopes from guard knots) too
    tab = K.get_phi_table(N, sp)
    # next to the edge against the integral itself, so a knot placed off
    # its exact v shows; v a power of two, so 1 - (1 - v) round-trips
    # exactly
    for e in range(30, 53):
        v = 2.0 ** -e
        want = _adaptive_edge_profile(v, N, sp)
        assert tab.edge_profile(1.0 - v) == pytest.approx(want, rel=5e-8), e
    rho = np.concatenate([np.linspace(0.0, 0.7, 7001),
                          1.0 - np.geomspace(1e-12, 0.3, 400)])
    want = K._edge_profile_exact(rho, N, sp)
    rel = np.abs(tab.edge_profile(rho) / want - 1.0)
    assert rel.max() <= 5e-12, f"worst at rho={rho[rel.argmax()]!r}"

    g = tab._g
    q = np.linspace(0.0, g.end / g.inv_h, 4 * (K._KNOTS - 1) + 1)
    assert np.exp(-q[-1] ** 2) == pytest.approx(K._V_MIN, rel=1e-14)
    v = np.exp(-q * q)
    want = K._edge_profile_exact(1.0 - v, N, sp, v=v)
    rel = np.abs(g(q) / want - 1.0)
    assert rel.max() <= 5e-12, f"worst at q={q[rel.argmax()]!r}"


# the (N, sp) the table's accuracy is pinned on: sp from 0.05 to 2.5,
# N from 3 to 8
TABLE_PIN_CASES = [(3, 0.2), (6, 0.05), (8, 0.1), (3, 0.66), (4, 0.8),
                   (3, 1.0), (3, 1.25), (3, 1.5), (5, 1.7), (3, 2.25),
                   (4, 2.5)]


@pytest.mark.parametrize("N, sp", TABLE_PIN_CASES)
def test_edge_profile_matches_closed_form_to_5e12(N, sp):
    # the interpolant in q against the closed form on 200,001 points in
    # rho in [0, 1/2] and 200,001 log-spaced points in 1 - rho in
    # [1e-12, 1/2], and exactly G(1) at rho = 1
    tab = K.get_phi_table(N, sp)
    rho = np.linspace(0.0, 0.5, 200_001)
    rel = np.abs(tab.edge_profile(rho) / K._edge_profile_exact(rho, N, sp)
                 - 1.0)
    assert rel.max() <= 5e-12, f"worst at rho={rho[rel.argmax()]!r}"
    rho = 1.0 - np.geomspace(1e-12, 0.5, 200_001)
    v = 1.0 - rho           # exact: the pair (rho, v) describes one point
    rel = np.abs(tab.edge_profile(rho)
                 / K._edge_profile_exact(rho, N, sp, v=v) - 1.0)
    assert rel.max() <= 5e-12, f"worst at v={v[rel.argmax()]!r}"
    assert tab.edge_profile(1.0) == K.edge_limit(N, sp)


@pytest.mark.parametrize("N, s", [(3, 0.5), (3, 0.1), (4, 0.4), (5, 0.85)])
def test_phi_table_matches_angular_reduction_at_the_edge(N, s):
    # Phi = G (1 - rho)^{-nu} with the edge factor from the unclipped
    # log(1 - rho): it keeps growing inside _V_MIN of the edge, where G
    # itself is G(1), down to 1 - rho = 1e-15
    P = ProblemParams.kernel_only(N, s, 2.0)
    tab = K.get_phi_table(N, P.sp)
    rho = np.concatenate([np.linspace(0.0, 0.99, 991),
                          1.0 - np.geomspace(1e-15, 1e-2, 131)])
    rel = np.abs(tab.phi(rho) / K.angular_reduction(rho, P) - 1.0)
    assert rel.max() <= 5e-12, f"worst at rho={rho[rel.argmax()]!r}"


def test_hermite_reproduces_cubics():
    # closed-form oracle: the fourth-order difference slopes are exact on
    # cubics, so the interpolant is the cubic itself between the knots
    def cubic(x):
        return 0.3 - 1.2 * x + 0.7 * x ** 2 + 0.9 * x ** 3

    x0, h, n = -1.5, 3.5 / 50, 51
    interp = K._Hermite(x0, h, cubic(x0 + np.arange(-2, n + 2) * h))
    x = np.random.default_rng(11).uniform(x0, x0 + (n - 1) * h, 5000)
    x = np.concatenate([x, [x0, x0 + (n - 1) * h]])
    err = np.abs(interp(x) - cubic(x))
    assert err.max() <= 1e-13, f"worst at x={x[err.argmax()]!r}"


@pytest.mark.parametrize("N, sp", _cases((3, 0.2), (6, 0.05)))
def test_edge_profile_below_table_matches_adaptive_oracle(N, sp):
    # below _V_MIN both the table and the closed form return G(1); the
    # smallest sp give the slowest edge term d v^nu, nu = sp + 1, and it
    # must stay below the bound there too
    tab = K.get_phi_table(N, sp)
    for v in [2.0 ** -40, 2.0 ** -42, 2.0 ** -46, 2.0 ** -50]:
        want = _adaptive_edge_profile(v, N, sp)
        assert tab.edge_profile(1.0 - v) == pytest.approx(want, rel=1e-11)
        assert K._edge_profile_exact(1.0 - v, N, sp) == \
            pytest.approx(want, rel=1e-11)
    g1 = K.edge_limit(N, sp)
    assert tab.edge_profile(1.0) == g1
    assert K._edge_profile_exact(1.0, N, sp) == g1


def test_phi_table_cache_and_vector_eval():
    t1 = K.get_phi_table(3, 1.0)
    t2 = K.get_phi_table(3, 1.0)
    assert t1 is t2
    vals = t1.phi(np.array([0.0, 0.3, 0.9, 1.0 - 1e-14]))
    assert vals.shape == (4,)
    assert np.all(np.isfinite(vals))
    with pytest.raises(DomainError):
        t1.phi(np.array([0.5, 1.0]))


def test_profile_constant_goldens(inst35):
    got = K.power_profile_constant(1.2, inst35)
    assert got == pytest.approx(GOLD_CBETA12_N3_STD, rel=1e-8)


def test_profile_constant_p25_goldens():
    P = ProblemParams(N=3, s=0.5, p=2.5, gamma=0.5, alpha=1.2, r_exp=1.2)
    got = K.power_profile_constant(1.5, P)
    assert got == pytest.approx(GOLD_CBETA15_P25_STD, rel=1e-8)
    got = K.power_profile_constant(0.9, P)
    assert got == pytest.approx(GOLD_CBETA09_P25_STD, rel=1e-8)


def test_profile_constant_structural_zero(inst35):
    at_star = K.power_profile_constant(inst35.beta_star, inst35)
    nearby = K.power_profile_constant(0.9 * inst35.beta_star, inst35)
    assert abs(at_star) <= 1e-8 * abs(nearby)


def test_profile_constant_window(inst35):
    lo, hi = K.profile_window(inst35)
    assert (lo, hi) == (1.0, 3.0)
    for bad in [lo, hi, 0.5, 3.5]:
        with pytest.raises(DomainError):
            K.power_profile_constant(bad, inst35)


def _profile_constant_oracle(beta, P):
    """C(beta) by the tests' adaptive bisection on the phi table."""
    N, sp, p = P.N, P.sp, P.p
    e1 = N - sp - beta * (p - 1.0)
    phi = K.get_phi_table(N, sp).phi

    def f(rho):
        # 1 - rho^e1 and 1 - rho^beta by expm1: both cancel toward rho = 1
        return (rho ** (sp - 1.0) * -np.expm1(e1 * np.log(rho))
                * (-np.expm1(beta * np.log(rho))) ** (p - 1.0) * phi(rho))

    res = integrate_adaptive(f, UNIT_POINTS, tol=1e-11, max_refinements=12,
                             lo_exponent=sp - 1.0 + min(e1, 0.0),
                             hi_exponent=p - K.edge_exponent(N, sp))
    return 2.0 * res.value


PIN_SETS = [(3, 0.5, 2.0), (3, 0.5, 2.5), (5, 0.4, 2.2), (3, 0.9, 2.5)]


@pytest.mark.parametrize("N, s, p", PIN_SETS)
def test_profile_constant_matches_adaptive_oracle(N, s, p):
    # the fixed rule against refinement to 1e-11 (the oracle's target is
    # relative to C, so the sample stays off beta_star, where C vanishes),
    # measured relative to max(|C|, 1); the phi table is the same on both
    # sides, so this measures the quadrature alone
    P = ProblemParams.kernel_only(N, s, p)
    lo, hi = K.profile_window(P)
    for beta in lo + (hi - lo) * np.array([0.02, 0.2, 0.45, 0.7, 0.98]):
        res = K.power_profile_result(beta, P)
        want = _profile_constant_oracle(beta, P)
        assert abs(res.value - want) <= 5e-11 * max(abs(want), 1.0), beta
        assert res.rel_err <= 1e-9 and res.n_evals == 7560


def test_profile_constant_meets_its_target_near_beta_star_at_small_s():
    # at (3, 0.3, 2) and beta in [2.334, 2.388], e1 = N - sp - beta (p - 1)
    # lies in (0.012, 0.066): rho^e1 varies over all of (0, 1e-6), where a
    # rule without panels graded toward 0 misses the 1e-9 target.  At
    # (3, 0.2, 2) and (4, 0.1, 2) the last three rows of the default
    # kernel-table sweep, |e1| <= 0.19 at sp = 0.4 and 0.2, missed it with
    # panels down to 0.5 * 4^-24 only.  The oracle's UNIT_POINTS reach
    # 1e-60: from 1e-30 it stalls at (4, 0.1, 2), where the mass below
    # rho = 1e-30 is still 1e-5 of C
    cases = [((3, 0.3), np.linspace(2.334, 2.388, 7)),
             ((3, 0.2), np.linspace(1.56, 2.76, 13)[-3:]),
             ((4, 0.1), np.linspace(2.28, 3.88, 13)[-3:])]
    for (N, s), betas in cases:
        P = ProblemParams.kernel_only(N, s, 2.0)
        for beta in betas:
            res = K.power_profile_result(beta, P)
            assert res.rel_err <= 1e-9, (N, s, beta)
            want = _profile_constant_oracle(beta, P)
            assert abs(res.value - want) <= 5e-11 * max(abs(want), 1.0), \
                (N, s, beta)


def test_riesz_power_constant_goldens():
    assert K.riesz_power_constant(1.2, 3, 0.5) == \
        pytest.approx(GOLD_LAM_12, rel=1e-13)
    assert K.riesz_power_constant(1.0, 3, 0.5) == \
        pytest.approx(2.0 / math.pi, rel=1e-13)
    assert K.riesz_power_constant(0.5, 3, 0.5) == pytest.approx(0.5, rel=1e-13)
    assert K.riesz_power_constant(2.25, 3, 0.5) == \
        pytest.approx(GOLD_LAM_225, rel=1e-13)
    # the profile r^{-(N-2s)} is harmonic for the fractional Laplacian
    assert K.riesz_power_constant(2.0, 3, 0.5) == 0.0


def test_riesz_power_constant_domain():
    with pytest.raises(DomainError):
        K.riesz_power_constant(0.0, 3, 0.5)
    with pytest.raises(DomainError):
        K.riesz_power_constant(3.0, 3, 0.5)


def test_riesz_normalization_closed_form():
    # N=3, s=1/2 collapses to 1/pi^2
    assert K.riesz_normalization(3, 0.5) == \
        pytest.approx(1.0 / math.pi**2, rel=1e-13)
    assert 2.0 / K.riesz_normalization(4, 0.4) == \
        pytest.approx(GOLD_CALIB_N4_S04, rel=1e-13)


def test_cross_check_selects_slicing_exponent():
    # the exponent a = (N - 3)/2 reproduces both the shape of the p = 2
    # closed form and its constant 2/C_{N,s}
    res = K.cross_check_p2(3, 0.5)
    assert res.passes
    assert res.max_rel_dev < 1e-8
    assert res.calibration == pytest.approx(GOLD_CALIB_N3_S05, rel=1e-7)
    assert res.calibration == \
        pytest.approx(res.theory_calibration, rel=1e-7)
    assert res.calibration_error <= 1e-8
    # measured sign above beta_star is negative, matching the oracle
    assert res.probe_value < 0.0
    assert res.riesz_probe < 0.0
    assert res.probe_sign_matches
    assert res.notes


def test_profile_table_roundtrip(tmp_path, inst35):
    betas = [1.2, 1.6, 2.4]
    rows = K.profile_table_rows(inst35, betas)
    assert [r[0] for r in rows] == betas
    assert rows[0][1] == pytest.approx(GOLD_CBETA12_N3_STD, rel=1e-8)
    assert all(r[2] < 1e-8 for r in rows)

    path = K.write_profile_table(str(tmp_path), inst35, rows)
    assert os.path.basename(path) == "cbeta_N3_s0.5_p2.csv"
    text = open(path).read()
    assert text.startswith("# power-profile constant sweep")
    assert "beta,c_beta,rel_err,quad_nodes" in text
    import csv as _csv
    with open(path) as fh:
        body = [row for row in _csv.reader(fh) if not row[0].startswith("#")]
    assert body[0] == ["beta", "c_beta", "rel_err", "quad_nodes"]
    assert [float(row[0]) for row in body[1:]] == betas
    np.testing.assert_allclose(float(body[1][1]), GOLD_CBETA12_N3_STD,
                               rtol=1e-8)
    # rewriting must be byte-identical (no timestamps, repr floats)
    again = K.write_profile_table(str(tmp_path), inst35, rows)
    assert open(again, "rb").read() == text.encode()
