"""Radial reduction of the nonlocal kernel and its derived constants.

For radial functions the interaction kernel ``|x - y|^{-(N + sp)}``
collapses, after integrating over directions, to a one-dimensional
kernel whose angular factor is

    Phi(rho) = sphere_measure(N) *
               integral_{-1}^{1} (1 - t^2)^a (1 - 2 t rho + rho^2)^{-(N+sp)/2} dt,

with ``rho`` the ratio of the two radii (in [0, 1)).  Two conventions
for the exponent ``a`` circulate in derivations of this reduction:

* ``"n-2"``: ``a = (N - 2)/2``;
* ``"n-3"``: ``a = (N - 3)/2``, the exponent produced by the standard
  sphere-slicing identity.

The package implements both behind the ``convention`` switch; the
closed-form cross-check at p = 2 (:func:`cross_check_p2`) decides which
one is consistent with the classical constant.  Every function defaults
to the validated ``"n-3"`` that the solver pipeline uses; ``"n-2"`` is
available as an explicit argument.

The power-profile constant

    C(beta) = 2 * integral_0^1 rho^{sp-1} [1 - rho^{N - sp - beta(p-1)}]
              (1 - rho^beta)^{p-1} Phi(rho) d rho

is the proportionality factor in ``(-Delta_p)^s r^{-beta} =
C(beta) r^{-beta(p-1)-sp}`` away from the origin.  Its admissible window
``(N-sp)/p < beta < N/(p-1)`` is simultaneously the finite-tail-energy
window (lower end) and the kernel-integrability window (upper end).
``C`` vanishes identically at ``beta_star = (N-sp)/(p-1)`` because the
middle bracket is zero there.

Phi has a closed form.  Write ``S = sphere_measure(N)``,
``mu = (N + sp)/2`` and ``c = a + 3/2``; Gegenbauer's integral gives

    Phi(rho) = S * B(a+1, 1/2) * 2F1(mu, mu - a - 1/2; c; rho^2).

Near ``rho = 1`` the angular factor blows up like
``(1 - rho)^{-nu}`` with ``nu = sp + 1`` ("n-3") or ``nu = sp`` ("n-2").
Euler's transformation (DLMF 15.8) gives the bounded edge profile

    G(rho) = (1 - rho)^{nu} Phi(rho)
           = S * B(a+1, 1/2) * (1 + rho)^{-nu}
               * 2F1(c - mu, 2a + 2 - mu; c; rho^2),

whose limit ``G(1) = S * B(a+1, mu - a - 1) / 2`` is computed in
:func:`edge_limit` and pins the spline table's endpoint.  The table
(:func:`get_phi_table`) is built from this closed form and serves every
caller on the hot path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import gammaln, gammasgn, hyp2f1

from .errors import DomainError, UsageError
from .params import ProblemParams
from .quadrature import QuadratureSpec, QuadResult, graded_points, integrate

__all__ = [
    "CONVENTIONS",
    "PIPELINE_CONVENTION",
    "unit_sphere_area",
    "unit_ball_volume",
    "sphere_measure",
    "angular_exponent",
    "edge_exponent",
    "edge_limit",
    "angular_reduction",
    "PhiTable",
    "get_phi_table",
    "power_profile_constant",
    "power_profile_result",
    "riesz_power_constant",
    "riesz_normalization",
    "ConventionCheck",
    "CrossCheckResult",
    "cross_check_p2",
    "profile_table_rows",
    "write_profile_table",
]

CONVENTIONS = ("n-2", "n-3")
PIPELINE_CONVENTION = "n-3"

_CROSS_CHECK_TOL = 1e-4


def unit_sphere_area(k: int) -> float:
    """Surface measure of the unit k-sphere, 2 pi^{(k+1)/2} / Gamma((k+1)/2)."""
    if k < 0:
        raise DomainError(f"k={k}: sphere dimension must be nonnegative")
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def unit_ball_volume(N: int) -> float:
    if N < 1:
        raise DomainError(f"N={N}: ball dimension must be positive")
    return math.pi ** (N / 2.0) / math.gamma(N / 2.0 + 1.0)


def sphere_measure(N: int) -> float:
    """The factor multiplying the angular integral: the (N-2)-sphere area."""
    if N < 3:
        raise DomainError(f"N={N}: the angular reduction needs N >= 3")
    return unit_sphere_area(N - 2)


def _check_convention(convention: str) -> str:
    if convention not in CONVENTIONS:
        raise UsageError(
            f"unknown convention {convention!r}; choose one of {CONVENTIONS}"
        )
    return convention


def angular_exponent(N: int, convention: str = PIPELINE_CONVENTION) -> float:
    """Exponent ``a`` in the angular weight (1 - t^2)^a."""
    _check_convention(convention)
    return (N - 2) / 2.0 if convention == "n-2" else (N - 3) / 2.0


def edge_exponent(N: int, sp: float, convention: str = PIPELINE_CONVENTION) -> float:
    """Blow-up rate nu with Phi(rho) ~ G(1) (1-rho)^{-nu} as rho -> 1."""
    a = angular_exponent(N, convention)
    return (N + sp) - 2.0 * a - 2.0


def edge_limit(N: int, sp: float, convention: str = PIPELINE_CONVENTION) -> float:
    """Closed form of G(1) = lim (1-rho)^{nu} Phi(rho).

    Laplace expansion of the angular integral at t = 1 gives
    G(1) = sphere_measure(N) * B(a + 1, c - a - 1) / 2 with
    c = (N + sp)/2.
    """
    a = angular_exponent(N, convention)
    c = (N + sp) / 2.0
    log_beta = gammaln(a + 1.0) + gammaln(c - a - 1.0) - gammaln(c)
    return 0.5 * sphere_measure(N) * math.exp(log_beta)


def _edge_profile_exact(rho, N: int, sp: float, convention: str):
    """G(rho) = (1 - rho)^nu Phi(rho) from its closed form, vectorized.

    Gegenbauer's integral followed by Euler's transformation (DLMF 15.8)
    gives G = S B(a+1, 1/2) (1+rho)^{-nu} 2F1(c-mu, 2a+2-mu; c; rho^2)
    with mu = (N+sp)/2 and c = a + 3/2.  The parameter excess of this
    2F1 is nu > 0, so it is bounded up to and including rho = 1.
    """
    a = angular_exponent(N, convention)
    nu = edge_exponent(N, sp, convention)
    mu = (N + sp) / 2.0
    c = a + 1.5
    log_beta = gammaln(a + 1.0) + gammaln(0.5) - gammaln(c)
    return (sphere_measure(N) * math.exp(log_beta) * (1.0 + rho) ** (-nu)
            * hyp2f1(c - mu, 2.0 * a + 2.0 - mu, c, rho * rho))


def angular_reduction(rho, params: ProblemParams,
                      convention: str = PIPELINE_CONVENTION):
    """Phi(rho) from its closed form, vectorized.  See the module docstring."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0.0) or np.any(rho >= 1.0):
        raise DomainError(f"rho={rho}: the angular reduction needs 0 <= rho < 1")
    nu = edge_exponent(params.N, params.sp, convention)
    out = (_edge_profile_exact(rho, params.N, params.sp, convention)
           * (1.0 - rho) ** (-nu))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Spline table for the edge profile G(rho) = (1 - rho)^nu Phi(rho)
# ---------------------------------------------------------------------------

_RHO_SPLIT = 0.5
_V_MIN = 1e-12


@dataclass
class PhiTable:
    """Fast, table-backed evaluation of Phi and its edge profile G.

    G is bounded on [0, 1], with a (1 - rho)^nu edge term; it is
    tabulated from its closed form on a uniform rho-grid left of
    ``_RHO_SPLIT`` and on a log-spaced grid in ``v = 1 - rho`` down to
    ``_V_MIN`` on the right, with the exact endpoint ``G(1)`` from
    :func:`edge_limit`.  Below ``_V_MIN`` the endpoint value is returned
    (the profile is within O(v + v^nu) of it).
    """

    N: int
    sp: float
    convention: str
    nu: float
    g1: float
    _lo: CubicSpline = field(repr=False)
    _hi: CubicSpline = field(repr=False)

    def edge_profile(self, rho):
        """G(rho), vectorized over rho in [0, 1]."""
        rho = np.asarray(rho, dtype=float)
        v = 1.0 - rho
        out = np.empty_like(rho)
        left = rho <= _RHO_SPLIT
        right_far = (~left) & (v >= _V_MIN)
        edge = (~left) & (v < _V_MIN)
        if np.any(left):
            out[left] = self._lo(rho[left])
        if np.any(right_far):
            out[right_far] = self._hi(np.log(v[right_far]))
        if np.any(edge):
            out[edge] = self.g1
        return out if out.ndim else float(out)

    def phi(self, rho):
        """Phi(rho) = G(rho) / (1 - rho)^nu, vectorized, rho in [0, 1)."""
        rho = np.asarray(rho, dtype=float)
        if np.any(rho >= 1.0) or np.any(rho < 0.0):
            raise DomainError("phi table evaluated outside [0, 1)")
        return self.edge_profile(rho) * (1.0 - rho) ** (-self.nu)


def _build_phi_table(N: int, sp: float, convention: str) -> PhiTable:
    nu = edge_exponent(N, sp, convention)
    g1 = edge_limit(N, sp, convention)

    rho_lo = np.linspace(0.0, _RHO_SPLIT + 0.05, 441)
    g_lo = _edge_profile_exact(rho_lo, N, sp, convention)

    v_hi = np.geomspace(_RHO_SPLIT, _V_MIN, 700)
    g_hi = _edge_profile_exact(1.0 - v_hi, N, sp, convention)

    lo_spline = CubicSpline(rho_lo, g_lo)
    x = np.log(v_hi[::-1])
    hi_spline = CubicSpline(x, g_hi[::-1])
    return PhiTable(N=N, sp=sp, convention=convention, nu=nu, g1=g1,
                    _lo=lo_spline, _hi=hi_spline)


_TABLE_CACHE: dict[tuple, PhiTable] = {}


def get_phi_table(N: int, sp: float, convention: str = PIPELINE_CONVENTION) -> PhiTable:
    """Cached per-(N, sp, convention) spline table of the edge profile."""
    _check_convention(convention)
    key = (int(N), round(float(sp), 12), convention)
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = _build_phi_table(int(N), float(sp), convention)
        _TABLE_CACHE[key] = table
    return table


# ---------------------------------------------------------------------------
# Power-profile constant C(beta)
# ---------------------------------------------------------------------------

def profile_window(params: ProblemParams) -> tuple[float, float]:
    """Open admissible window for the power-profile constant."""
    return (params.N - params.sp) / params.p, params.N / (params.p - 1.0)


def power_profile_result(beta: float, params: ProblemParams,
                         quad: QuadratureSpec,
                         convention: str = PIPELINE_CONVENTION) -> QuadResult:
    """C(beta) with the quadrature's error estimate and node count.

    The angular factor comes from the cached :class:`PhiTable`.
    """
    _check_convention(convention)
    N, sp, p = params.N, params.sp, params.p
    lo_w, hi_w = profile_window(params)
    if not lo_w < beta < hi_w:
        raise DomainError(
            f"beta={beta}: outside the open admissible window "
            f"({lo_w:g}, {hi_w:g}) of the power-profile constant"
        )
    e1 = N - sp - beta * (p - 1.0)
    nu = edge_exponent(N, sp, convention)
    phi = get_phi_table(N, sp, convention).phi

    def f(rho):
        return (rho ** (sp - 1.0)
                * -np.expm1(e1 * np.log(rho))
                * (-np.expm1(beta * np.log(rho))) ** (p - 1.0)
                * phi(rho))

    pts = [0.0, 1e-6, 1e-4, 1e-2, 0.1, 0.25, 0.5]
    pts += graded_points(0.5, 1.0, toward=1.0, scale=1e-8, factor=4.0)[1:]
    res = integrate(f, pts, quad,
                    lo_exponent=sp - 1.0 + min(e1, 0.0),
                    hi_exponent=p - nu)
    return QuadResult(2.0 * res.value, res.rel_err, res.n_evals)


def power_profile_constant(beta: float, params: ProblemParams,
                           quad: QuadratureSpec,
                           convention: str = PIPELINE_CONVENTION) -> float:
    """The constant C(beta); zero exactly at beta_star by construction."""
    return power_profile_result(beta, params, quad, convention).value


# ---------------------------------------------------------------------------
# Closed-form p = 2 oracle
# ---------------------------------------------------------------------------

def riesz_power_constant(beta: float, N: int, s: float) -> float:
    """lambda(beta) with (-Delta)^s |x|^{-beta} = lambda |x|^{-beta-2s}.

    Classical Gamma-function closed form, valid for 0 < beta < N; the
    zero at beta = N - 2s (a denominator pole) is the removable point
    where r^{-beta} is s-harmonic away from the origin.
    """
    if not 0.0 < beta < N:
        raise DomainError(f"beta={beta}: the closed form needs 0 < beta < N")
    x1 = 0.5 * (beta + 2.0 * s)
    x2 = 0.5 * (N - beta)
    x3 = 0.5 * beta
    x4 = 0.5 * (N - beta - 2.0 * s)
    if x1 <= 0.0 or x2 <= 0.0:
        raise DomainError(
            f"beta={beta}: numerator Gamma argument out of range")
    if x4 == 0.0:
        return 0.0
    sign = gammasgn(x1) * gammasgn(x2) * gammasgn(x3) * gammasgn(x4)
    log_mag = gammaln(x1) + gammaln(x2) - gammaln(x3) - gammaln(x4)
    return float(sign) * 2.0 ** (2.0 * s) * math.exp(log_mag)


def riesz_normalization(N: int, s: float) -> float:
    """Dimensional constant of the classical singular-integral form.

    The pointwise operator used here carries a bare factor 2 and no
    dimensional constant, so the expected ratio between the radial
    profile constant and :func:`riesz_power_constant` is
    ``2 / riesz_normalization(N, s)``.
    """
    return (s * 4.0 ** s * math.exp(gammaln(N / 2.0 + s) - gammaln(1.0 - s))
            / math.pi ** (N / 2.0))


# ---------------------------------------------------------------------------
# Convention cross-check
# ---------------------------------------------------------------------------

@dataclass
class ConventionCheck:
    convention: str
    calibration: float
    max_rel_dev: float
    passes: bool
    probe_value: float
    probe_sign_matches: bool


@dataclass
class CrossCheckResult:
    N: int
    s: float
    ladder: list[float]
    riesz_values: list[float]
    checks: list[ConventionCheck]
    selected: str | None
    probe_beta: float
    riesz_probe: float
    theory_calibration: float
    notes: list[str]


def cross_check_p2(N: int, s: float,
                   quad: QuadratureSpec | None = None,
                   n_points: int = 5) -> CrossCheckResult:
    """Compare C(beta) against the p = 2 closed form on a beta ladder.

    One calibration point fixes the multiplicative normalization; the
    remaining ladder points must then agree to 1e-4 relative for a
    convention to pass.  A probe above beta_star records the measured
    sign (not asserted: the constant is negative there, which the
    barrier construction for supersolutions does not anticipate, so it
    is flagged rather than used downstream).
    """
    quad = quad or QuadratureSpec()
    params = ProblemParams.kernel_only(N, s, 2.0)
    beta_star = params.beta_star
    lo, hi_w = profile_window(params)
    ladder = [lo + k * (beta_star - lo) / (n_points + 1)
              for k in range(1, n_points + 1)]
    lam = [riesz_power_constant(b, N, s) for b in ladder]
    probe_beta = beta_star + 0.25 * (hi_w - beta_star)
    lam_probe = riesz_power_constant(probe_beta, N, s)
    theory = 2.0 / riesz_normalization(N, s)

    checks = []
    notes = []
    mid = n_points // 2
    for convention in CONVENTIONS:
        vals = [power_profile_constant(b, params, quad, convention)
                for b in ladder]
        calib = vals[mid] / lam[mid]
        devs = [abs(v - calib * l) / abs(calib * l)
                for v, l in zip(vals, lam)]
        max_dev = max(devs)
        probe = power_profile_constant(probe_beta, params, quad, convention)
        checks.append(ConventionCheck(
            convention=convention,
            calibration=calib,
            max_rel_dev=max_dev,
            passes=max_dev <= _CROSS_CHECK_TOL,
            probe_value=probe,
            probe_sign_matches=(probe < 0.0) == (lam_probe < 0.0),
        ))

    passing = [c.convention for c in checks if c.passes]
    selected = passing[0] if len(passing) == 1 else None
    if selected is None:
        notes.append(
            f"cross-check did not single out a convention (passing: {passing})"
        )
    else:
        chk = next(c for c in checks if c.convention == selected)
        notes.append(
            f"convention {selected!r} matches the p=2 closed form "
            f"(max relative deviation {chk.max_rel_dev:.3e}); measured "
            f"calibration {chk.calibration:.12g} vs closed-form "
            f"2/normalization = {theory:.12g}"
        )
        notes.append(
            f"profile constant at beta={probe_beta:.6g} (above beta_star) "
            f"measured {chk.probe_value:.6g}; the closed-form oracle gives "
            f"{lam_probe * chk.calibration:.6g}. Both are negative: the "
            "barrier argument for decay rates above beta_star assumes a "
            "positive constant there, so that regime is flagged, not used."
        )
    return CrossCheckResult(
        N=N, s=s, ladder=ladder, riesz_values=lam, checks=checks,
        selected=selected, probe_beta=probe_beta, riesz_probe=lam_probe,
        theory_calibration=theory, notes=notes,
    )


# ---------------------------------------------------------------------------
# Golden tables
# ---------------------------------------------------------------------------

def profile_table_rows(params: ProblemParams, betas, quad: QuadratureSpec,
                       convention: str = PIPELINE_CONVENTION):
    """Rows (beta, c_beta, rel_err, quad_nodes) for a beta sweep."""
    rows = []
    for beta in betas:
        res = power_profile_result(beta, params, quad, convention)
        rows.append((float(beta), res.value, res.rel_err, res.n_evals))
    return rows


def write_profile_table(out_dir: str, params: ProblemParams, rows,
                        convention: str = PIPELINE_CONVENTION) -> str:
    """Write a beta sweep as ``cbeta_N{N}_s{s}_p{p}.csv``.

    Comment lines carry the instance and, at p = 2, the measured
    one-point calibration against the closed form.
    """
    name = f"cbeta_N{params.N}_s{params.s:g}_p{params.p:g}.csv"
    path = os.path.join(out_dir, name)
    os.makedirs(out_dir, exist_ok=True)
    lines = [
        "# power-profile constant sweep",
        f"# N={params.N} s={params.s:g} p={params.p:g} convention={convention}",
    ]
    if params.p == 2.0:
        theory = 2.0 / riesz_normalization(params.N, params.s)
        lines.append(f"# calibration={theory!r}")
    lines.append("beta,c_beta,rel_err,quad_nodes")
    for beta, value, rel_err, nodes in rows:
        lines.append(f"{beta!r},{value!r},{rel_err:.3e},{nodes}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
