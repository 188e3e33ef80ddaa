import math

import pytest

from fracp.errors import DomainError, UsageError
from fracp.params import ProblemParams


def make(**kw):
    base = dict(N=3, s=0.5, p=2.0, gamma=0.5, alpha=1.5)
    base.update(kw)
    return ProblemParams(**base)


def test_derived_exponents():
    P = make()
    assert P.sp == 1.0
    assert P.beta_star == pytest.approx(2.0)
    # beta_def = (N + alpha - gamma*beta_star - sp) / (p - 1)
    assert P.beta_def == pytest.approx((3 + 1.5 - 0.5 * 2.0 - 1.0) / 1.0)
    lo, hi = P.alpha_window
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(2.0)


def test_derived_exponents_p25():
    P = ProblemParams(N=3, s=0.5, p=2.5, gamma=0.5, alpha=1.2, r_exp=1.2)
    assert P.sp == pytest.approx(1.25)
    assert P.beta_star == pytest.approx(7.0 / 6.0)
    lo, hi = P.alpha_window
    assert lo == pytest.approx(0.5 * 7.0 / 6.0)
    assert hi == pytest.approx(0.5 * 7.0 / 6.0 + 1.25)


@pytest.mark.parametrize("bad", [dict(N=2), dict(N=0)])
def test_dimension_guard(bad):
    with pytest.raises(DomainError, match=r"\(H_f\)"):
        make(**bad)


@pytest.mark.parametrize("N", [math.inf, -math.inf, math.nan])
def test_dimension_guard_nonfinite(N):
    # int() of these raises OverflowError or ValueError of its own
    with pytest.raises(DomainError, match=r"\(H_f\)"):
        make(N=N)


@pytest.mark.parametrize("bad", [dict(s=0.0), dict(s=1.0), dict(s=-0.2)])
def test_order_guard(bad):
    with pytest.raises(DomainError):
        make(**bad)


def test_exponent_guard():
    with pytest.raises(DomainError):
        make(p=1.9)
    with pytest.raises(DomainError):
        make(p=6.0)  # p >= N/s
    with pytest.raises(DomainError):
        make(gamma=0.0)
    with pytest.raises(DomainError):
        make(gamma=1.0)


def test_superlinear_exponent_window():
    # the open window (1, p-1) is empty at p = 2
    with pytest.raises(DomainError, match="r_exp"):
        make(r_exp=1.5)
    P = ProblemParams(N=3, s=0.5, p=2.5, gamma=0.5, alpha=1.2, r_exp=1.2)
    assert P.r_exp == 1.2
    with pytest.raises(DomainError):
        ProblemParams(N=3, s=0.5, p=2.5, gamma=0.5, alpha=1.2, r_exp=1.6)
    with pytest.raises(DomainError):
        ProblemParams(N=3, s=0.5, p=2.5, gamma=0.5, alpha=1.2, r_exp=1.0)


def test_weight_decay_window_guard():
    # (H_a) requires alpha strictly inside (gamma*beta_star, gamma*beta_star + sp)
    with pytest.raises(DomainError, match=r"\(H_a\)"):
        make(alpha=1.0)
    with pytest.raises(DomainError, match=r"\(H_a\)"):
        make(alpha=2.0)
    with pytest.raises(DomainError):
        make(alpha=5.0)
    assert make(alpha=1.999).alpha == 1.999


def test_weight_amplitude_guard():
    with pytest.raises(DomainError):
        make(c_a=0.0)
    with pytest.raises(DomainError):
        make(c_a=-1.0)


@pytest.mark.parametrize("c_a", [math.nan, math.inf])
def test_weight_amplitude_must_be_finite(c_a):
    # nan fails no one-sided comparison, and an infinite weight makes
    # every reaction integral infinite
    with pytest.raises(DomainError, match="positive and finite"):
        make(c_a=c_a)


def test_kernel_only_constructor():
    P = ProblemParams.kernel_only(4, 0.4, 2.0)
    assert P.N == 4 and P.s == 0.4 and P.p == 2.0
    lo, hi = P.alpha_window
    assert lo < P.alpha < hi
    assert P.r_exp is None


@pytest.mark.parametrize("N, s, p", [(3, 0.5, 2.0), (3, 0.5, 2.5),
                                     (4, 0.4, 2.0), (5, 0.3, 3.7)])
def test_alpha_default_is_the_window_midpoint(N, s, p):
    # the config's default, kernel_only's and alpha=None are one value,
    # bit for bit the midpoint gamma*beta_star + s*p/2 written out here
    from fracp.config import parse_config
    beta_star = (N - s * p) / (p - 1.0)
    mid = 0.5 * beta_star + 0.5 * s * p
    cfg = parse_config(f"params.N = {N}\nparams.s = {s!r}\n"
                       f"params.p = {p!r}\nparams.gamma = 0.5\n")
    alphas = (cfg.params.alpha, ProblemParams.kernel_only(N, s, p).alpha,
              ProblemParams(N=N, s=s, p=p, gamma=0.5, alpha=None).alpha)
    assert [a.hex() for a in alphas] == [mid.hex()] * 3


def test_kappa_rule_is_h_f():
    P = ProblemParams(N=3, s=0.5, p=2.5, gamma=0.5, alpha=1.2, r_exp=1.2)
    for kappa in (0.0, 0.5, 1.0):
        P.check_kappa(kappa)
    make().check_kappa(0.0)
    for kappa in (-0.1, 1.5, math.nan):
        with pytest.raises(DomainError,
                           match=r"need 0 <= kappa <= 1, see \(H_f\)"):
            P.check_kappa(kappa)
    with pytest.raises(UsageError, match=r"kappa > 0 needs params.r_exp"):
        make().check_kappa(0.5)


def test_frozen():
    P = make()
    with pytest.raises(Exception):
        P.N = 5
