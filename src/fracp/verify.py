"""One-shot verification run covering every advertised guarantee.

``run_acceptance`` executes the full battery at desk scale and returns a
:class:`~fracp.analysis.VerificationReport`: kernel constants against
closed forms, operator identities, solver continuation and truncation
ordering, decay fits, the Harnack quotient, and the comparison checks.
The run is deterministic for a fixed :class:`VerifySettings` (the only
randomness is a seeded direction sample in the gradient check), so the
emitted JSON is byte-stable.

The flagship configuration is N=3, s=1/2, p=2 with gamma=1/2 and alpha
at the midpoint of its window; the truncation battery runs at p=5/2
where the reaction exponent window (1, p-1) is nonempty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (CheckRecord, VerificationReport,
                       capacitary_stationarity, check_capacitary,
                       check_decay_sandwich, comparison_check, decay_window,
                       fit_decay, fundamental_residual, harnack_ratio,
                       uniform_bound_check)
from .grid import RadialFunction, make_radial_grid
from .kernel import PIPELINE_CONVENTION, cross_check_p2, power_profile_constant
from .operator import assemble, energy_seminorm, weak_residual
from .params import ProblemParams
from .quadrature import QuadratureSpec
from .solver import (RegularizedProblem, _levels, doubling_schedule,
                     solve_capacitary, solve_full, solve_pure_singular)

__all__ = ["VerifySettings", "run_acceptance"]

# (N, s, p) triples whose profile constant must vanish at beta_star
ZERO_TRIPLES = ((3, 0.5, 2.0), (3, 0.5, 2.5), (4, 0.4, 2.0))
# p = 2 members of the family, where the Gamma closed form applies
RIESZ_PAIRS = ((3, 0.5), (4, 0.4))
# solver tolerance of the truncation battery
_TRUNC_TOL = 1e-5


@dataclass(frozen=True)
class VerifySettings:
    """Grid sizes, schedules and tolerances for one acceptance run."""

    R_max: float = 64.0
    grading: float = 1.03
    M: int = 256
    M_coarse: int = 128
    M_fine: int = 512
    schedule_max_n: int = 128
    trunc_max_n: int = 16384
    tol: float = 1e-8
    seed: int = 20240817


def _grid_and_matrix(cache: dict, params: ProblemParams, st: VerifySettings,
                     M: int, tail_exponent: float,
                     grading: float | None = None):
    grading = st.grading if grading is None else grading
    key = (M, st.R_max, grading, tail_exponent,
           params.N, params.sp, params.p)
    if key not in cache:
        g = make_radial_grid(tail_exponent=tail_exponent, R_max=st.R_max,
                             M=M, grading=grading)
        cache[key] = (g, assemble(g, params))
    return cache[key]


def _check_profile_zero(report: VerificationReport, quad: QuadratureSpec):
    for (N, s, p) in ZERO_TRIPLES:
        params = ProblemParams.kernel_only(N, s, p)
        c_star = power_profile_constant(params.beta_star, params, quad,
                                        PIPELINE_CONVENTION)
        c_ref = power_profile_constant(0.9 * params.beta_star, params, quad,
                                       PIPELINE_CONVENTION)
        ratio = abs(c_star) / abs(c_ref)
        report.add_check(CheckRecord(
            f"cbeta-zero-N{N}-s{s:g}-p{p:g}", ratio <= 1e-8, ratio,
            0.0, 1e-8))


def _check_riesz_ladder(report: VerificationReport):
    for (N, s) in RIESZ_PAIRS:
        res = cross_check_p2(N, s)
        sel = next(c for c in res.checks if c.convention == res.selected) \
            if res.selected else None
        ok = sel is not None and sel.max_rel_dev <= 1e-4
        report.add_check(CheckRecord(
            f"riesz-ladder-N{N}-s{s:g}", ok,
            sel.max_rel_dev if sel else float("inf"), 0.0, 1e-4))
        sign = "matches" if (sel and sel.probe_sign_matches) else "DIFFERS"
        probe = sel.probe_value if sel else float("nan")
        report.note(
            f"profile constant above beta_star at N={N}, s={s:g}: "
            f"measured {probe:.6e} (negative side), closed-form sign "
            f"{sign}; not used by the barrier construction either way")
        for text in res.notes:
            report.note(f"N={N}, s={s:g}: {text}")


def _check_operator_identities(report: VerificationReport,
                               st: VerifySettings, p2: ProblemParams,
                               p25: ProblemParams, cache: dict,
                               rng: np.random.Generator):
    # constants sit in the kernel of the pairing only when the synthetic
    # tail is flat, hence the dedicated tail_exponent = 0 grid
    g0, K0 = _grid_and_matrix(cache, p2, st, st.M_coarse, 0.0)
    const = RadialFunction(g0, np.full_like(g0.nodes, 0.731))
    ref = RadialFunction(g0, (1.0 + g0.nodes ** 2) ** -1.0)
    scale = float(np.abs(weak_residual(ref, K0, p2)).max())
    worst = float(np.abs(weak_residual(const, K0, p2)).max())
    report.add_check(CheckRecord(
        "constant-residual", worst <= 1e-10 * scale, worst / scale,
        0.0, 1e-10))

    # homogeneity is only informative away from p = 2
    g25, K25 = _grid_and_matrix(cache, p25, st, st.M, p25.beta_star)
    u = RadialFunction(g25, 0.1 + rng.random(g25.nodes.size))
    lam = 2.75
    ul = RadialFunction(g25, lam * u.values)
    e, el = energy_seminorm(u, K25, p25), energy_seminorm(ul, K25, p25)
    dev_e = abs(el - lam ** p25.p * e) / (lam ** p25.p * e)
    report.add_check(CheckRecord(
        "energy-homogeneity", dev_e <= 1e-10, dev_e, 0.0, 1e-10))
    r1 = weak_residual(u, K25, p25)
    rl = weak_residual(ul, K25, p25)
    ref_r = lam ** (p25.p - 1.0) * r1
    dev_r = float(np.abs(rl - ref_r).max() / np.abs(ref_r).max())
    report.add_check(CheckRecord(
        "residual-homogeneity", dev_r <= 1e-10, dev_r, 0.0, 1e-10))

    # p = 2 pairing identity <Au - Av, u - v> = E(u - v)
    g2, K2 = _grid_and_matrix(cache, p2, st, st.M_coarse, p2.beta_star)
    a = RadialFunction(g2, (1.0 + g2.nodes ** 2) ** -1.0)
    b = RadialFunction(g2, (1.0 + g2.nodes) ** -2.0)
    diff = RadialFunction(g2, a.values - b.values)
    lhs = float(np.dot(weak_residual(a, K2, p2) - weak_residual(b, K2, p2),
                       diff.values))
    rhs = energy_seminorm(diff, K2, p2)
    dev = abs(lhs - rhs) / rhs
    report.add_check(CheckRecord(
        "pairing-identity-p2", dev <= 1e-10, dev, 0.0, 1e-10))


def _check_gradient(report: VerificationReport, st: VerifySettings,
                    p2: ProblemParams, cache: dict,
                    rng: np.random.Generator):
    g, K = _grid_and_matrix(cache, p2, st, st.M_coarse, p2.beta_star)
    prob = RegularizedProblem(p2, 3, g, K)
    x = 0.05 + 0.5 * rng.random(g.nodes.size)
    grad = prob.at(x).gradient
    worst = 0.0
    for _ in range(20):
        d = rng.standard_normal(g.nodes.size)
        d /= float(np.abs(d).max())
        eps = 2e-6
        plus = prob.at(x + eps * d).value
        minus = prob.at(x - eps * d).value
        fd = (plus - minus) / (2.0 * eps)
        exact = float(grad @ d)
        worst = max(worst, abs(fd - exact) / max(abs(exact), 1e-30))
    report.add_check(CheckRecord(
        "gradient-fd", worst <= 1e-6, worst, 0.0, 1e-6))


def _check_fundamental_profile(report: VerificationReport,
                               st: VerifySettings, p2: ProblemParams,
                               cache: dict):
    g, K = _grid_and_matrix(cache, p2, st, st.M, p2.beta_star)
    res = fundamental_residual(p2.beta_star, p2, g, K)
    report.add_check(CheckRecord(
        "fundsol-residual", res <= 0.02, res, 0.0, 0.02))
    # refine within the same geometric family: doubling the node count
    # while taking the square root of the growth factor halves the local
    # spacing everywhere (at fixed grading the spacing near radius r
    # saturates at (grading - 1) * r, and extra nodes change nothing)
    grading_fine = st.grading ** (st.M / st.M_fine)
    gf, Kf = _grid_and_matrix(cache, p2, st, st.M_fine, p2.beta_star,
                              grading=grading_fine)
    res_fine = fundamental_residual(p2.beta_star, p2, gf, Kf)
    ratio = res / res_fine if res_fine > 0.0 else float("inf")
    report.add_check(CheckRecord(
        "fundsol-refinement", ratio >= 1.6, ratio, 1.6, 0.0))


def _check_capacitary(report: VerificationReport, st: VerifySettings,
                      p2: ProblemParams, cache: dict):
    g, K = _grid_and_matrix(cache, p2, st, st.M, p2.beta_star)
    u1 = solve_capacitary(1.0, p2, g, K, tol=st.tol)
    _, miss = capacitary_stationarity(u1, 1.0, K, p2, st.tol)
    if miss is not None:
        report.note(miss)
    fit, checks = check_capacitary(u1, 1.0, p2, stationary=miss is None)
    report.add_fit("capacitary-R1", fit)
    for c in checks:
        report.add_check(c)


def _stationary(report: VerificationReport, label: str, rep,
                tol: float) -> bool:
    """Whether a solve met its stationarity tolerance; a note if not.

    Only the residual is gated: a continuation that ends unsettled still
    gives a stationary last level, which is what the checks consume.
    """
    if rep.residual_norm <= tol:
        return True
    report.note(f"{label} missed stationarity: residual "
                f"{rep.residual_norm:.3e} > tol {tol:g}")
    return False


def _check_continuation(report: VerificationReport, st: VerifySettings,
                        p2: ProblemParams, cache: dict):
    """Level-by-level monotonicity and energy flatness; returns u-bar."""
    g, K = _grid_and_matrix(cache, p2, st, st.M, p2.beta_star)
    schedule = doubling_schedule(st.schedule_max_n)
    family = []
    worst = 0.0
    stationary = True
    for n, (cur, rep) in zip(schedule, _levels(p2, g, K, schedule, st.tol)):
        stationary &= _stationary(report, f"continuation level n={n}", rep,
                                  st.tol)
        if family:
            worst = min(worst, float((cur.values - family[-1].values).min()))
        family.append(cur)
    u_bar = family[-1]
    scale = float(u_bar.values.max())
    normalized = worst / scale
    report.add_check(CheckRecord(
        "continuation-monotone", stationary and normalized >= -1e-8,
        normalized, 0.0, 1e-8))
    flat = uniform_bound_check(family, p2, K)
    report.add_check(CheckRecord(
        "continuation-energy-flat", flat.passed, flat.measured,
        flat.target, flat.tolerance))
    return u_bar


def _check_pure_singular(report: VerificationReport, p2: ProblemParams,
                         u_bar: RadialFunction):
    m = float(u_bar.values.min())
    report.add_check(CheckRecord(
        "pure-singular-positive", m > 0.0, m, 0.0, 0.0))
    fit = fit_decay(u_bar)
    report.add_fit("pure-singular", fit)
    dev = abs(fit.exponent - p2.beta_star) / p2.beta_star
    report.add_check(CheckRecord(
        "pure-singular-exponent", dev <= 0.1, dev, 0.0, 0.1))
    lower, upper = check_decay_sandwich(u_bar, p2)
    report.add_check(CheckRecord("pure-singular-lower-amplitude",
                                 lower.passed, lower.measured, 0.0, 0.0))
    report.add_check(CheckRecord("pure-singular-upper-amplitude",
                                 upper.passed, upper.measured, 0.0, 0.0))
    # record which envelope sits closer to the profile on the window
    lo, hi = decay_window(u_bar.grid)
    r = u_bar.grid.nodes
    sel = (r >= lo) & (r <= hi)
    lo_gap = float((u_bar.values[sel] * r[sel] ** p2.beta_star).max()
                   / lower.measured)
    up_gap = float(upper.measured
                   / (u_bar.values[sel] * r[sel] ** p2.beta_def).min())
    side = "lower (capacitary rate)" if lo_gap <= up_gap else \
        "upper (reaction-limited rate)"
    report.note(
        f"decay sandwich: binding bound is the {side}; envelope spreads "
        f"{lo_gap:.6f} (lower) vs {up_gap:.6f} (upper)")


def _check_truncation(report: VerificationReport, st: VerifySettings,
                      p25: ProblemParams, cache: dict):
    g, K = _grid_and_matrix(cache, p25, st, st.M, p25.beta_star)
    schedule = doubling_schedule(st.trunc_max_n)
    u_bar, levels = solve_pure_singular(p25, g, K, schedule=schedule,
                                        tol=_TRUNC_TOL)
    # every level's miss gets its note, so no short-circuit here
    floor_ok = all([_stationary(report, f"truncation level n={n}", rep,
                                _TRUNC_TOL)
                    for n, rep in zip(schedule, levels)])
    scale = float(u_bar.values.max())
    report.note(
        f"truncation battery at N={p25.N}, s={p25.s:g}, p={p25.p:g}, "
        f"gamma={p25.gamma:g}, r_exp={p25.r_exp:g}, alpha={p25.alpha!r}, "
        f"regularization levels up to n={st.trunc_max_n}")
    min_exp = float("inf")
    for kappa in (0.0, 0.5, 1.0):
        u_t, rep = solve_full(p25, g, K, u_bar, kappa, tol=_TRUNC_TOL)
        ok = _stationary(report, f"truncated solve kappa={kappa:g}", rep,
                         _TRUNC_TOL)
        drop = float((u_t.values - u_bar.values).min()) / scale
        report.add_check(CheckRecord(
            f"truncation-order-kappa-{kappa:g}",
            floor_ok and ok and drop >= -1e-8, drop, 0.0, 1e-8))
        if kappa == 0.0:
            gap = float(np.abs(u_t.values - u_bar.values).max())
            report.add_check(CheckRecord(
                "truncation-kappa0-gap", gap <= 10.0 * _TRUNC_TOL, gap,
                0.0, 10.0 * _TRUNC_TOL))
        fit = fit_decay(u_t)
        min_exp = min(min_exp, fit.exponent)
        if kappa == 1.0:
            report.add_fit("truncated-kappa-1", fit)
    report.add_check(CheckRecord(
        "truncation-tail-positive", min_exp > 0.0, min_exp, 0.0, 0.0))


def _check_harnack(report: VerificationReport, p2: ProblemParams,
                   u_bar: RadialFunction):
    raw = harnack_ratio(u_bar, 4.0, p2)
    sigma = min(1.0, raw)
    report.add_check(CheckRecord(
        "harnack-sigma", 0.0 < sigma <= 1.0, sigma, 1.0, 0.0))
    scaled = RadialFunction(u_bar.grid, 3.7 * u_bar.values)
    dev = abs(harnack_ratio(scaled, 4.0, p2) - raw)
    report.add_check(CheckRecord(
        "harnack-invariance", dev <= 1e-10, dev, 0.0, 1e-10))
    report.set_harnack(sigma, 4.0)
    report.note(f"harnack quotient before the cap at 1: {raw!r}")


def _check_comparison(report: VerificationReport, st: VerifySettings,
                      p2: ProblemParams, cache: dict,
                      u_bar: RadialFunction):
    g, K = _grid_and_matrix(cache, p2, st, st.M, p2.beta_star)
    region = g.nodes > 1.0
    rtol = 10.0 * st.tol
    pairs = [
        ("identical", u_bar, u_bar),
        ("halved", RadialFunction(g, 0.5 * u_bar.values), u_bar),
        ("quartered", RadialFunction(g, 0.25 * u_bar.values), u_bar),
        ("shifted-up", u_bar,
         RadialFunction(g, u_bar.values + 0.1 * float(u_bar.values.max()))),
    ]
    n_ok = 0
    for label, u, v in pairs:
        ok = comparison_check(u, v, region, K, p2, residual_tol=rtol,
                              value_tol=st.tol)
        n_ok += ok
        if not ok:
            report.note(f"comparison pair '{label}' failed")
    report.add_check(CheckRecord(
        "comparison-pairs", n_ok == len(pairs), float(n_ok),
        float(len(pairs)), 0.0))

    # corrupt one interior node of the majorant below the minorant, then
    # widen the residual tolerance until the hypothesis formally holds:
    # the conclusion is now false and the check must say so
    half = RadialFunction(g, 0.5 * u_bar.values)
    j = int(np.argmin(np.abs(g.nodes - 5.0)))
    vals = u_bar.values.copy()
    vals[j] = half.values[j] * (1.0 - 1e-4)
    bad = RadialFunction(g, vals)
    ru = weak_residual(half, K, p2)
    rv = weak_residual(bad, K, p2)
    slack = 2.0 * float((ru - rv)[region].max())
    verdict = comparison_check(half, bad, region, K, p2,
                               residual_tol=slack, value_tol=1e-10)
    report.add_check(CheckRecord(
        "comparison-negative", verdict is False, float(verdict), 0.0, 0.0))
    report.note(
        f"negative comparison pair corrupts node {j} "
        f"(r={g.nodes[j]:.6g}) and is reported as a failure")


def run_acceptance(settings: VerifySettings | None = None,
                   out_path: str | None = None) -> VerificationReport:
    """Run the whole battery; optionally write the JSON report."""
    st = settings or VerifySettings()
    quad = QuadratureSpec()
    rng = np.random.default_rng(st.seed)
    p2 = ProblemParams(N=3, s=0.5, p=2.0, gamma=0.5, alpha=1.5)
    p25 = ProblemParams(N=3, s=0.5, p=2.5, gamma=0.5, alpha=29.0 / 24.0,
                        r_exp=1.2)
    report = VerificationReport(p2)
    cache: dict = {}

    _check_profile_zero(report, quad)
    _check_riesz_ladder(report)
    _check_operator_identities(report, st, p2, p25, cache, rng)
    _check_gradient(report, st, p2, cache, rng)
    _check_fundamental_profile(report, st, p2, cache)
    _check_capacitary(report, st, p2, cache)
    u_bar = _check_continuation(report, st, p2, cache)
    _check_pure_singular(report, p2, u_bar)
    _check_truncation(report, st, p25, cache)
    _check_harnack(report, p2, u_bar)
    _check_comparison(report, st, p2, cache, u_bar)

    if out_path is not None:
        report.write(out_path)
    return report
