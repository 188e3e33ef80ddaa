"""Kernel constants against an independent high-precision computation.

The GOLD_* values below were produced by a 30-digit arbitrary-precision
evaluation of the angular integral, the profile-constant integral, and
the Gamma-function closed form, then rounded to double precision.  They
pin both exponent conventions so the cross-check cannot drift silently.
"""

import math
import os

import numpy as np
import pytest

from fracp.errors import DomainError, UsageError
from fracp.params import ProblemParams
from fracp.quadrature import QuadratureSpec, graded_points, integrate
from fracp import kernel as K

GOLD_PHI0_N3_STD = 12.566370614359173       # 4*pi
GOLD_PHI0_N3_N2 = 9.86960440108935862      # pi^2
GOLD_PHI05_N3_STD = 22.3402144255274186
GOLD_PHI05_N3_N2 = 13.1594725347858115
GOLD_PHI0_N4_N2 = 16.7551608191455639      # 16*pi/3
GOLD_PHI0_N4_STD = 19.7392088021787172     # 2*pi^2

GOLD_CBETA12_N3_STD = 12.1502075934660583
GOLD_CBETA12_N3_N2 = 7.38580161406662043
GOLD_CBETA15_P25_STD = -13.7120677614862795
GOLD_CBETA09_P25_STD = 3.59844113038368275

GOLD_LAM_12 = 0.615536707435050681
GOLD_LAM_225 = -0.517766952966368811
GOLD_CALIB_N3_S05 = 19.7392088021787172    # 2*pi^2 again, by coincidence of (3, 1/2)
GOLD_CALIB_N4_S04 = 33.9794005661988324


@pytest.fixture(scope="module")
def quad():
    return QuadratureSpec(nodes=24, tol=1e-10, max_refinements=14)


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
    assert K.angular_exponent(3, "n-2") == 0.5
    assert K.angular_exponent(3, "n-3") == 0.0
    assert K.angular_exponent(4, "n-3") == 0.5
    with pytest.raises(UsageError):
        K.angular_exponent(3, "n-1")


def test_edge_exponent():
    assert K.edge_exponent(3, 1.0, "n-3") == pytest.approx(2.0)   # 1 + sp
    assert K.edge_exponent(3, 1.0, "n-2") == pytest.approx(1.0)   # sp
    assert K.edge_exponent(4, 1.6, "n-3") == pytest.approx(2.6)


def test_angular_reduction_goldens(inst35):
    assert K.angular_reduction(0.0, inst35, "n-3") == \
        pytest.approx(GOLD_PHI0_N3_STD, rel=1e-12)
    assert K.angular_reduction(0.0, inst35, "n-2") == \
        pytest.approx(GOLD_PHI0_N3_N2, rel=1e-12)
    assert K.angular_reduction(0.5, inst35, "n-3") == \
        pytest.approx(GOLD_PHI05_N3_STD, rel=1e-12)
    assert K.angular_reduction(0.5, inst35, "n-2") == \
        pytest.approx(GOLD_PHI05_N3_N2, rel=1e-12)
    P4 = ProblemParams.kernel_only(4, 0.4, 2.0)
    assert K.angular_reduction(0.0, P4, "n-2") == \
        pytest.approx(GOLD_PHI0_N4_N2, rel=1e-12)
    assert K.angular_reduction(0.0, P4, "n-3") == \
        pytest.approx(GOLD_PHI0_N4_STD, rel=1e-12)


def _adaptive_edge_profile(v, N, sp, convention):
    """Oracle: G = v^nu Phi(1 - v) by adaptive quadrature of the integral.

    Substituting u = 1 - t turns 1 - 2 t rho + rho^2 into v^2 + 2 rho u,
    which is free of cancellation near the edge.
    """
    a = K.angular_exponent(N, convention)
    c = (N + sp) / 2.0
    rho = 1.0 - v
    v2 = v * v

    def f(u):
        return u ** a * (2.0 - u) ** a * (v2 + 2.0 * rho * u) ** (-c)

    pts = graded_points(0.0, 2.0, toward=0.0, scale=max(v2, 1e-28),
                        factor=4.0, max_panels=60)
    quad = QuadratureSpec(nodes=24, tol=1e-10, max_refinements=14)
    res = integrate(f, pts, quad, lo_exponent=a, hi_exponent=a)
    nu = K.edge_exponent(N, sp, convention)
    return K.sphere_measure(N) * res.value * v ** nu


@pytest.mark.parametrize("convention", K.CONVENTIONS)
@pytest.mark.parametrize("N, sp", [(3, 1.0), (3, 1.25), (4, 0.8), (5, 1.7)])
def test_closed_form_matches_adaptive_oracle(N, sp, convention):
    P = ProblemParams.kernel_only(N, sp / 2.0, 2.0)
    nu = K.edge_exponent(N, sp, convention)
    for v in np.geomspace(1e-9, 1.0, 16):
        rho = 1.0 - v
        v = 1.0 - rho  # exact: the pair (rho, v) describes one point
        got = K.angular_reduction(rho, P, convention) * v ** nu
        want = _adaptive_edge_profile(v, N, sp, convention)
        assert got == pytest.approx(want, rel=1e-11)
    assert K._edge_profile_exact(1.0, N, sp, convention) == \
        pytest.approx(K.edge_limit(N, sp, convention), rel=1e-14)


def test_fresh_phi_table_needs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the phi table must not call quadrature")

    monkeypatch.setattr(K, "integrate", refuse)
    monkeypatch.setattr(K, "_TABLE_CACHE", {})
    tab = K.get_phi_table(3, 1.0, "n-3")
    assert float(tab.phi(0.0)) == pytest.approx(GOLD_PHI0_N3_STD, rel=1e-12)


def test_angular_reduction_domain(inst35):
    with pytest.raises(DomainError):
        K.angular_reduction(1.0, inst35)
    with pytest.raises(DomainError):
        K.angular_reduction(-0.1, inst35)


def test_angular_reduction_monotone(inst35):
    ladder = [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.99]
    vals = [K.angular_reduction(r, inst35, "n-3") for r in ladder]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_edge_profile_bounded_and_limits(inst35):
    # (1 - rho)^nu * Phi stays bounded and approaches the closed form
    nu = K.edge_exponent(3, 1.0, "n-3")
    g1 = K.edge_limit(3, 1.0, "n-3")
    assert g1 == pytest.approx(math.pi, rel=1e-14)
    for v in [1e-2, 1e-5, 1e-9, 1e-12]:
        phi = K.angular_reduction(1.0 - v, inst35, "n-3")
        g = phi * v**nu
        assert abs(g) < 2.0 * g1
    # v a power of two so 1 - (1 - v) round-trips exactly
    v = 2.0**-30
    phi_edge = K.angular_reduction(1.0 - v, inst35, "n-3")
    assert phi_edge * v**2 == pytest.approx(g1, rel=1e-8)


def test_phi_table_matches_adaptive(inst35):
    tab = K.get_phi_table(3, 1.0, "n-3")
    rng = np.random.default_rng(7)
    ladder = np.concatenate([
        rng.uniform(0.0, 0.99, 20),
        1.0 - np.geomspace(1e-11, 1e-2, 12),
    ])
    for r in ladder:
        direct = K.angular_reduction(float(r), inst35, "n-3")
        assert float(tab.phi(float(r))) == pytest.approx(direct, rel=5e-8)


def test_phi_table_cache_and_vector_eval():
    t1 = K.get_phi_table(3, 1.0, "n-3")
    t2 = K.get_phi_table(3, 1.0, "n-3")
    assert t1 is t2
    vals = t1.phi(np.array([0.0, 0.3, 0.9, 1.0 - 1e-14]))
    assert vals.shape == (4,)
    assert np.all(np.isfinite(vals))
    with pytest.raises(DomainError):
        t1.phi(np.array([0.5, 1.0]))


def test_profile_constant_goldens(quad, inst35):
    got = K.power_profile_constant(1.2, inst35, quad, "n-3")
    assert got == pytest.approx(GOLD_CBETA12_N3_STD, rel=1e-8)
    got2 = K.power_profile_constant(1.2, inst35, quad, "n-2")
    assert got2 == pytest.approx(GOLD_CBETA12_N3_N2, rel=1e-8)


def test_profile_constant_p25_goldens(quad):
    P = ProblemParams(N=3, s=0.5, p=2.5, gamma=0.5, alpha=1.2, r_exp=1.2)
    got = K.power_profile_constant(1.5, P, quad, "n-3")
    assert got == pytest.approx(GOLD_CBETA15_P25_STD, rel=1e-8)
    got = K.power_profile_constant(0.9, P, quad, "n-3")
    assert got == pytest.approx(GOLD_CBETA09_P25_STD, rel=1e-8)


def test_profile_constant_structural_zero(quad, inst35):
    at_star = K.power_profile_constant(inst35.beta_star, inst35, quad, "n-3")
    nearby = K.power_profile_constant(0.9 * inst35.beta_star, inst35, quad,
                                      "n-3")
    assert abs(at_star) <= 1e-8 * abs(nearby)


def test_profile_constant_window(quad, inst35):
    lo, hi = K.profile_window(inst35)
    assert (lo, hi) == (1.0, 3.0)
    for bad in [lo, hi, 0.5, 3.5]:
        with pytest.raises(DomainError):
            K.power_profile_constant(bad, inst35, quad, "n-3")


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
    res = K.cross_check_p2(3, 0.5)
    assert res.selected == "n-3"
    by_name = {c.convention: c for c in res.checks}
    assert by_name["n-3"].passes
    assert by_name["n-3"].max_rel_dev < 1e-8
    assert not by_name["n-2"].passes
    assert by_name["n-2"].max_rel_dev > 1e-3
    assert by_name["n-3"].calibration == \
        pytest.approx(GOLD_CALIB_N3_S05, rel=1e-7)
    assert by_name["n-3"].calibration == \
        pytest.approx(res.theory_calibration, rel=1e-7)
    # measured sign above beta_star is negative, matching the oracle
    assert by_name["n-3"].probe_value < 0.0
    assert res.riesz_probe < 0.0
    assert by_name["n-3"].probe_sign_matches
    assert res.notes


def test_profile_table_roundtrip(tmp_path, quad, inst35):
    betas = [1.2, 1.6, 2.4]
    rows = K.profile_table_rows(inst35, betas, quad, "n-3")
    assert [r[0] for r in rows] == betas
    assert rows[0][1] == pytest.approx(GOLD_CBETA12_N3_STD, rel=1e-8)
    assert all(r[2] < 1e-8 for r in rows)

    path = K.write_profile_table(str(tmp_path), inst35, rows, "n-3")
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
    again = K.write_profile_table(str(tmp_path), inst35, rows, "n-3")
    assert open(again, "rb").read() == text.encode()
