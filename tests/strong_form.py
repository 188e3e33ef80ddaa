"""The strong form of the fractional p-Laplacian at N = 3: the tests'
oracle for the assembled operator at every p.

For a radial profile w on R^3 the operator of the energy's pair form,

    L_p w(x) = 2 PV int |w(x) - w(y)|^{p-2} (w(x) - w(y)) |x - y|^{-3-sp} dy,

reduces after the angular integration to one radial principal value,
because at N = 3 the angular kernel is elementary:

    int_{S^2} |r e - rho theta|^{-3-sp} dtheta
        = 2 pi (|r - rho|^{-1-sp} - (r + rho)^{-1-sp}) / ((1 + sp) r rho).

The principal value is taken by pairing rho = r + t with rho = r - t for
0 < t < r, where the two non-integrable halves cancel, and the rest,
rho > 2r, is integrated as it stands; ``scipy.integrate.quad`` does
both.  Nothing here calls the package: at p = 2 the result is pinned to
the closed form of (-Delta)^s (1 + r^2)^{-sigma} (:func:`p2_closed_form`),
and the weak residual of the package is compared with hat-weighted
loads of ``L_p w`` (:func:`hat_loads`).
"""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import hyp2f1


def angular_kernel(r, rho, sp):
    """int_{S^2} |r e - rho theta|^{-3-sp} dtheta.  With a = |r - rho|,
    b = r + rho and q = 1 + sp, the difference of the two powers is
    a^{-q} (1 - (a/b)^q), (a/b)^q from log1p, so it keeps its digits for
    rho far from r."""
    q = 1.0 + sp
    a, b = abs(r - rho), r + rho
    diff = -math.expm1(q * math.log1p(-2.0 * min(r, rho) / b))
    return 2.0 * math.pi * a ** -q * diff / (q * r * rho)


def strong_form(w, r, s, p):
    """L_p w(r) at N = 3 for a radial profile ``w`` (a scalar function),
    by adaptive quadrature of the paired principal value."""
    sp = s * p
    wr = w(r)

    def flux(rho):
        d = wr - w(rho)
        return abs(d) ** (p - 2.0) * d * rho * rho * angular_kernel(r, rho,
                                                                    sp)

    def paired(t):
        return flux(r + t) + flux(r - t) if t > 0.0 else 0.0

    # near t = 0 the two halves of a pair cancel to a few digits, and at
    # p > 2 quad reports the roundoff it sees there; the values agreed
    # with a 50-digit mpmath evaluation of the same integrals to 5e-12
    # (p = 2.2 and 2.5, r = 0.3 and 3)
    opts = dict(epsabs=0.0, epsrel=1e-10, limit=200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        near = quad(paired, 0.0, r, **opts)[0]
        far = quad(flux, 2.0 * r, np.inf, **opts)[0]
    return 2.0 * (near + far)


def p2_closed_form(r, s, sigma):
    """L_2 w at N = 3 for w = (1 + r^2)^{-sigma}: (2/C_{3,s}) times
    (-Delta)^s w = 4^s Gamma(sigma+s) Gamma(3/2+s) / (Gamma(sigma)
    Gamma(3/2)) 2F1(sigma+s, 3/2+s; 3/2; -r^2) (Dyda 2012), with
    C_{3,s} = s 4^s Gamma(3/2+s) / (pi^{3/2} Gamma(1-s)) the constant of
    the singular-integral form (Di Nezza, Palatucci and Valdinoci 2012)."""
    c_ns = s * 4.0 ** s * math.gamma(1.5 + s) / (math.pi ** 1.5
                                                 * math.gamma(1.0 - s))
    lam = (4.0 ** s * math.gamma(sigma + s) * math.gamma(1.5 + s)
           / (math.gamma(sigma) * math.gamma(1.5)))
    return 2.0 / c_ns * lam * hyp2f1(sigma + s, 1.5 + s, 1.5, -r * r)


def hat_loads(w, nodes, which, s, p, n_gauss=4):
    """4 pi int L_p w(x) phi_i(x) x^2 dx for the interior nodes ``which``
    of the breakpoints ``nodes``, phi_i the hat of node i: an
    ``n_gauss``-point Gauss-Legendre rule (numpy's) on each of its two
    cells, where L_p w is smooth."""
    y, wy = np.polynomial.legendre.leggauss(n_gauss)
    y, wy = 0.5 * (y + 1.0), 0.5 * wy
    out = []
    for i in which:
        total = 0.0
        for lo, hi, rising in ((nodes[i - 1], nodes[i], True),
                               (nodes[i], nodes[i + 1], False)):
            for yk, wk in zip(y, wy):
                x = lo + (hi - lo) * yk
                hat = yk if rising else 1.0 - yk
                total += (hi - lo) * wk * hat * x * x * strong_form(w, x, s,
                                                                    p)
        out.append(4.0 * math.pi * total)
    return np.array(out)
