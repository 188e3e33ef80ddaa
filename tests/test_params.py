import math

import pytest

from fracp.errors import DomainError
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


def test_frozen():
    P = make()
    with pytest.raises(Exception):
        P.N = 5
