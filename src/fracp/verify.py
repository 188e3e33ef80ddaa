"""One-shot verification run covering every advertised guarantee.

``run_acceptance`` executes the full battery at desk scale and returns a
:class:`~fracp.analysis.VerificationReport`: kernel constants against
closed forms, operator identities, solver continuation and truncation
ordering, decay fits, the Harnack quotient, and the comparison checks.
The run is deterministic for a fixed :class:`VerifySettings` (the only
randomness is one seeded generator, drawn by the homogeneity check and
then by the gradient check), so the emitted JSON is byte-stable.

The flagship configuration ``P2`` is N=3, s=1/2, p=2 with gamma=1/2 and
alpha at the midpoint of its window; the truncation battery runs at
``P25``, p=5/2, where the reaction exponent window (1, p-1) is nonempty.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .analysis import (CheckRecord, VerificationReport,
                       capacitary_stationarity, check_capacitary,
                       check_decay_sandwich, comparison_check, decay_window,
                       fit_decay, fundamental_residual, harnack_ratio,
                       uniform_bound_check)
from .grid import GRADING, RadialFunction, make_radial_grid
from .kernel import cross_check_p2, power_profile_constant
from .operator import (_with_tail_exponent, assemble, energy_seminorm,
                       weak_residual)
from .params import ProblemParams
from .solver import (RegularizedProblem, _levels, doubling_schedule,
                     solve_capacitary, solve_full, solve_pure_singular)

__all__ = ["VerifySettings", "run_acceptance"]

# (N, s, p) triples whose profile constant must vanish at beta_star
ZERO_TRIPLES = ((3, 0.5, 2.0), (3, 0.5, 2.5), (4, 0.4, 2.0))
# p = 2 members of the family, where the Gamma closed form applies
RIESZ_PAIRS = ((3, 0.5), (4, 0.4))
# the flagship parameter set, and the truncation battery's
P2 = ProblemParams(N=3, s=0.5, p=2.0, gamma=0.5, alpha=1.5)
P25 = ProblemParams(N=3, s=0.5, p=2.5, gamma=0.5, alpha=29.0 / 24.0,
                    r_exp=1.2)
# solver tolerance of the truncation battery
_TRUNC_TOL = 1e-5


@dataclass(frozen=True)
class VerifySettings:
    """Grid sizes, schedules and tolerances for one acceptance run."""

    R_max: float = 64.0
    M: int = 256
    M_coarse: int = 128
    M_fine: int = 512
    schedule_max_n: int = 128
    trunc_max_n: int = 16384
    tol: float = 1e-8
    seed: int = 20240817


class _Battery:
    """One acceptance run: its settings, generator, report, assemblies
    and the ``P2`` continuation that every u-bar criterion reads.

    The assemblies hold one entry per node set and (N, s, p), mapping
    tail exponents to (grid, matrix), the assembled one first.  Only the
    tail blocks' ``g`` and ``tail_self`` depend on the tail exponent, so
    another exponent on the same nodes is derived from the assembled
    matrix rather than assembled again.  The continuation is solved on
    first use, so a criterion run alone computes what it reads.
    """

    def __init__(self, settings: VerifySettings):
        self.st = settings
        self.rng = np.random.default_rng(settings.seed)
        self.report = VerificationReport(P2)
        self._assemblies: dict = {}

    def matrix(self, params: ProblemParams, M: int, tail_exponent: float,
               grading: float = GRADING):
        """The grid of M nodes with ``tail_exponent`` and its matrix."""
        tails = self._assemblies.setdefault(
            (M, grading, params.N, params.sp, params.p), {})
        if tail_exponent not in tails:
            g = make_radial_grid(tail_exponent=tail_exponent,
                                 R_max=self.st.R_max, M=M, grading=grading)
            if tails:
                _, K = next(iter(tails.values()))
                tails[tail_exponent] = (g, _with_tail_exponent(K, g))
            else:
                tails[tail_exponent] = (g, assemble(g, params))
        return tails[tail_exponent]

    @cached_property
    def continuation(self) -> list:
        """(n, u_n, report) for each level of the ``P2`` continuation."""
        g, K = self.matrix(P2, self.st.M, P2.beta_star)
        schedule = doubling_schedule(self.st.schedule_max_n)
        return [(n, u, rep) for n, (u, rep)
                in zip(schedule, _levels(P2, g, K, schedule, self.st.tol))]

    @property
    def u_bar(self) -> RadialFunction:
        return self.continuation[-1][1]

    def stationary(self, label: str, rep, tol: float) -> bool:
        """Whether a solve met its stationarity tolerance; a note if not.

        Only the residual is gated: a continuation that ends unsettled
        still gives a stationary last level, which is what the checks
        consume.
        """
        if rep.residual_norm <= tol:
            return True
        self.report.note(f"{label} missed stationarity: residual "
                         f"{rep.residual_norm:.3e} > tol {tol:g}")
        return False

    def note_clips(self):
        """One note per assembly of the run: where it floored adjacent
        weights and capped far-field corrections for nonnegativity."""
        for (M, grading, N, sp, p), tails in self._assemblies.items():
            _, K = next(iter(tails.values()))
            self.report.note(
                f"assembly M={M}, grading={grading:.6g}, N={N}, sp={sp:g}, "
                f"p={p:g}: adjacent_clips={K.adjacent_clips} "
                f"(adjacent_clipped={K.adjacent_clipped:.3e}), "
                f"correction_clips={K.correction_clips} "
                f"(correction_clipped={K.correction_clipped:.3e})")


def _check_profile_zero(b: _Battery):
    for (N, s, p) in ZERO_TRIPLES:
        params = ProblemParams.kernel_only(N, s, p)
        c_star = power_profile_constant(params.beta_star, params)
        c_ref = power_profile_constant(0.9 * params.beta_star, params)
        ratio = abs(c_star) / abs(c_ref)
        b.report.add_check(CheckRecord(
            f"cbeta-zero-N{N}-s{s:g}-p{p:g}", ratio <= 1e-8, ratio,
            0.0, 1e-8))


def _check_riesz_ladder(b: _Battery):
    for (N, s) in RIESZ_PAIRS:
        res = cross_check_p2(N, s)
        # the shape is the measured value; passing also needs the
        # calibration within 1e-8 of 2/C_{N,s} (a note records its miss)
        b.report.add_check(CheckRecord(
            f"riesz-ladder-N{N}-s{s:g}", res.passes, res.max_rel_dev,
            0.0, 1e-4))
        sign = "matches" if res.probe_sign_matches else "DIFFERS"
        b.report.note(
            f"profile constant above beta_star at N={N}, s={s:g}: "
            f"measured {res.probe_value:.6e} (negative side), closed-form "
            f"sign {sign}; not used by the barrier construction either way")
        for text in res.notes:
            b.report.note(f"N={N}, s={s:g}: {text}")


def _check_operator_identities(b: _Battery):
    # constants sit in the kernel of the pairing only when the synthetic
    # tail is flat, hence the dedicated tail_exponent = 0 grid (its
    # assembly serves the beta_star grid of the pairing identity too)
    g0, K0 = b.matrix(P2, b.st.M_coarse, 0.0)
    const = RadialFunction(g0, np.full_like(g0.nodes, 0.731))
    ref = RadialFunction(g0, (1.0 + g0.nodes ** 2) ** -1.0)
    scale = float(np.abs(weak_residual(ref, K0)).max())
    worst = float(np.abs(weak_residual(const, K0)).max())
    b.report.add_check(CheckRecord(
        "constant-residual", worst <= 1e-10 * scale, worst / scale,
        0.0, 1e-10))

    # homogeneity is only informative away from p = 2
    g25, K25 = b.matrix(P25, b.st.M, P25.beta_star)
    u = RadialFunction(g25, 0.1 + b.rng.random(g25.nodes.size))
    lam = 2.75
    ul = RadialFunction(g25, lam * u.values)
    e, el = energy_seminorm(u, K25), energy_seminorm(ul, K25)
    dev_e = abs(el - lam ** P25.p * e) / (lam ** P25.p * e)
    b.report.add_check(CheckRecord(
        "energy-homogeneity", dev_e <= 1e-10, dev_e, 0.0, 1e-10))
    r1 = weak_residual(u, K25)
    rl = weak_residual(ul, K25)
    ref_r = lam ** (P25.p - 1.0) * r1
    dev_r = float(np.abs(rl - ref_r).max() / np.abs(ref_r).max())
    b.report.add_check(CheckRecord(
        "residual-homogeneity", dev_r <= 1e-10, dev_r, 0.0, 1e-10))

    # p = 2 pairing identity <Au - Av, u - v> = E(u - v)
    g2, K2 = b.matrix(P2, b.st.M_coarse, P2.beta_star)
    a = RadialFunction(g2, (1.0 + g2.nodes ** 2) ** -1.0)
    c = RadialFunction(g2, (1.0 + g2.nodes) ** -2.0)
    diff = RadialFunction(g2, a.values - c.values)
    lhs = float(np.dot(weak_residual(a, K2) - weak_residual(c, K2),
                       diff.values))
    rhs = energy_seminorm(diff, K2)
    dev = abs(lhs - rhs) / rhs
    b.report.add_check(CheckRecord(
        "pairing-identity-p2", dev <= 1e-10, dev, 0.0, 1e-10))


def _check_gradient(b: _Battery):
    g, K = b.matrix(P2, b.st.M_coarse, P2.beta_star)
    prob = RegularizedProblem(P2, 3, g, K)
    x = 0.05 + 0.5 * b.rng.random(g.nodes.size)
    grad = prob.at(x).gradient
    worst = 0.0
    for _ in range(20):
        d = b.rng.standard_normal(g.nodes.size)
        d /= float(np.abs(d).max())
        eps = 2e-6
        plus = prob.at(x + eps * d).value
        minus = prob.at(x - eps * d).value
        fd = (plus - minus) / (2.0 * eps)
        exact = float(grad @ d)
        worst = max(worst, abs(fd - exact) / max(abs(exact), 1e-30))
    b.report.add_check(CheckRecord(
        "gradient-fd", worst <= 1e-6, worst, 0.0, 1e-6))


def _check_fundamental_profile(b: _Battery):
    _, K = b.matrix(P2, b.st.M, P2.beta_star)
    res = fundamental_residual(P2.beta_star, P2, K)
    b.report.add_check(CheckRecord(
        "fundsol-residual", res <= 0.02, res, 0.0, 0.02))
    # refine within the same geometric family: doubling the node count
    # while taking the square root of the growth factor halves the local
    # spacing everywhere (at fixed grading the spacing near radius r
    # saturates at (grading - 1) * r, and extra nodes change nothing)
    grading_fine = GRADING ** (b.st.M / b.st.M_fine)
    _, Kf = b.matrix(P2, b.st.M_fine, P2.beta_star, grading=grading_fine)
    res_fine = fundamental_residual(P2.beta_star, P2, Kf)
    ratio = res / res_fine if res_fine > 0.0 else float("inf")
    b.report.add_check(CheckRecord(
        "fundsol-refinement", ratio >= 1.6, ratio, 1.6, 0.0))


def _check_capacitary(b: _Battery):
    g, K = b.matrix(P2, b.st.M, P2.beta_star)
    u1 = solve_capacitary(1.0, P2, g, K, tol=b.st.tol)
    _, miss = capacitary_stationarity(u1, 1.0, K, b.st.tol)
    if miss is not None:
        b.report.note(miss)
    fit, checks = check_capacitary(u1, 1.0, P2, stationary=miss is None)
    b.report.add_fit("capacitary-R1", fit)
    for c in checks:
        b.report.add_check(c)


def _check_continuation(b: _Battery):
    """Level-by-level monotonicity and energy flatness."""
    family = [u for _, u, _ in b.continuation]
    # every level's miss gets its note, so no short-circuit here
    stationary = all([b.stationary(f"continuation level n={n}", rep,
                                   b.st.tol)
                      for n, _, rep in b.continuation])
    worst = min([0.0] + [float((cur.values - prev.values).min())
                         for prev, cur in zip(family, family[1:])])
    normalized = worst / float(b.u_bar.values.max())
    b.report.add_check(CheckRecord(
        "continuation-monotone", stationary and normalized >= -1e-8,
        normalized, 0.0, 1e-8))
    _, K = b.matrix(P2, b.st.M, P2.beta_star)
    b.report.add_check(replace(uniform_bound_check(family, K),
                               name="continuation-energy-flat"))


def _check_pure_singular(b: _Battery):
    u_bar = b.u_bar
    m = float(u_bar.values.min())
    b.report.add_check(CheckRecord(
        "pure-singular-positive", m > 0.0, m, 0.0, 0.0))
    fit = fit_decay(u_bar)
    b.report.add_fit("pure-singular", fit)
    dev = abs(fit.exponent - P2.beta_star) / P2.beta_star
    b.report.add_check(CheckRecord(
        "pure-singular-exponent", dev <= 0.1, dev, 0.0, 0.1))
    lower, upper = check_decay_sandwich(u_bar, P2)
    b.report.add_check(replace(lower, name="pure-singular-lower-amplitude"))
    b.report.add_check(replace(upper, name="pure-singular-upper-amplitude"))
    # record which envelope sits closer to the profile on the window
    lo, hi = decay_window(u_bar.grid)
    r = u_bar.grid.nodes
    sel = (r >= lo) & (r <= hi)
    lo_gap = float((u_bar.values[sel] * r[sel] ** P2.beta_star).max()
                   / lower.measured)
    up_gap = float(upper.measured
                   / (u_bar.values[sel] * r[sel] ** P2.beta_def).min())
    side = "lower (capacitary rate)" if lo_gap <= up_gap else \
        "upper (reaction-limited rate)"
    b.report.note(
        f"decay sandwich: binding bound is the {side}; envelope spreads "
        f"{lo_gap:.6f} (lower) vs {up_gap:.6f} (upper)")


def _check_truncation(b: _Battery):
    g, K = b.matrix(P25, b.st.M, P25.beta_star)
    schedule = doubling_schedule(b.st.trunc_max_n)
    u_bar, levels = solve_pure_singular(P25, g, K, schedule=schedule,
                                        tol=_TRUNC_TOL)
    # every level's miss gets its note, so no short-circuit here
    floor_ok = all([b.stationary(f"truncation level n={n}", rep, _TRUNC_TOL)
                    for n, rep in zip(schedule, levels)])
    scale = float(u_bar.values.max())
    b.report.note(
        f"truncation battery at N={P25.N}, s={P25.s:g}, p={P25.p:g}, "
        f"gamma={P25.gamma:g}, r_exp={P25.r_exp:g}, alpha={P25.alpha!r}, "
        f"regularization levels up to n={b.st.trunc_max_n}")
    min_exp = float("inf")
    for kappa in (0.0, 0.5, 1.0):
        u_t, rep = solve_full(P25, g, K, u_bar, kappa, tol=_TRUNC_TOL)
        ok = b.stationary(f"truncated solve kappa={kappa:g}", rep,
                          _TRUNC_TOL)
        drop = float((u_t.values - u_bar.values).min()) / scale
        b.report.add_check(CheckRecord(
            f"truncation-order-kappa-{kappa:g}",
            floor_ok and ok and drop >= -1e-8, drop, 0.0, 1e-8))
        if kappa == 0.0:
            gap = float(np.abs(u_t.values - u_bar.values).max())
            b.report.add_check(CheckRecord(
                "truncation-kappa0-gap", gap <= 10.0 * _TRUNC_TOL, gap,
                0.0, 10.0 * _TRUNC_TOL))
        fit = fit_decay(u_t)
        min_exp = min(min_exp, fit.exponent)
        if kappa == 1.0:
            b.report.add_fit("truncated-kappa-1", fit)
    b.report.add_check(CheckRecord(
        "truncation-tail-positive", min_exp > 0.0, min_exp, 0.0, 0.0))


def _check_harnack(b: _Battery):
    u_bar = b.u_bar
    raw = harnack_ratio(u_bar, 4.0, P2)
    sigma = min(1.0, raw)
    b.report.add_check(CheckRecord(
        "harnack-sigma", 0.0 < sigma <= 1.0, sigma, 1.0, 0.0))
    scaled = RadialFunction(u_bar.grid, 3.7 * u_bar.values)
    dev = abs(harnack_ratio(scaled, 4.0, P2) - raw)
    b.report.add_check(CheckRecord(
        "harnack-invariance", dev <= 1e-10, dev, 0.0, 1e-10))
    b.report.set_harnack(sigma, 4.0)
    b.report.note(f"harnack quotient before the cap at 1: {raw!r}")


def _check_comparison(b: _Battery):
    g, K = b.matrix(P2, b.st.M, P2.beta_star)
    u_bar = b.u_bar
    region = g.nodes > 1.0
    rtol = 10.0 * b.st.tol
    pairs = [
        ("identical", u_bar, u_bar),
        ("halved", RadialFunction(g, 0.5 * u_bar.values), u_bar),
        ("quartered", RadialFunction(g, 0.25 * u_bar.values), u_bar),
        ("shifted-up", u_bar,
         RadialFunction(g, u_bar.values + 0.1 * float(u_bar.values.max()))),
    ]
    n_ok = 0
    for label, u, v in pairs:
        ok = comparison_check(u, v, region, K, residual_tol=rtol,
                              value_tol=b.st.tol)
        n_ok += ok
        if not ok:
            b.report.note(f"comparison pair '{label}' failed")
    b.report.add_check(CheckRecord(
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
    ru = weak_residual(half, K)
    rv = weak_residual(bad, K)
    slack = 2.0 * float((ru - rv)[region].max())
    verdict = comparison_check(half, bad, region, K, residual_tol=slack,
                               value_tol=1e-10)
    b.report.add_check(CheckRecord(
        "comparison-negative", verdict is False, float(verdict), 0.0, 0.0))
    b.report.note(
        f"negative comparison pair corrupts node {j} "
        f"(r={g.nodes[j]:.6g}) and is reported as a failure")


# the criteria in report order; the homogeneity check draws from the
# generator before the gradient check does
_CRITERIA = (_check_profile_zero, _check_riesz_ladder,
             _check_operator_identities, _check_gradient,
             _check_fundamental_profile, _check_capacitary,
             _check_continuation, _check_pure_singular, _check_truncation,
             _check_harnack, _check_comparison)


def run_acceptance(settings: VerifySettings | None = None,
                   out_path: str | None = None) -> VerificationReport:
    """Run the whole battery; optionally write the JSON report."""
    b = _Battery(settings or VerifySettings())
    for criterion in _CRITERIA:
        criterion(b)
    b.note_clips()
    if out_path is not None:
        b.report.write(out_path)
    return b.report
