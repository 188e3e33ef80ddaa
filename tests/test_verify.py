"""The battery acts on the solver's reports, not only on the profiles.

A solve that stops short of its stationarity tolerance can still return
a profile that orders correctly, so the continuation and truncation
checks must fail on the report itself.  The solvers are wrapped to
return a report with a missed residual (the profile is left as solved),
on a small grid so each check runs in well under a second.  The
capacitary solve returns no report; its checks fail on the free-node
residual of the profile, which the wrapper moves off the solution.  A
phi table scaled by 1.01 keeps the shape of every profile constant, so
only the closed-form constant of criterion 2 can see it.
"""

import dataclasses

import pytest

from fracp import kernel, solver, verify
from fracp.analysis import VerificationReport
from fracp.params import ProblemParams


@pytest.fixture(scope="module")
def settings():
    return verify.VerifySettings(M=48, schedule_max_n=4, trunc_max_n=4)


@pytest.fixture(scope="module")
def p2():
    return ProblemParams(N=3, s=0.5, p=2.0, gamma=0.5, alpha=1.5)


@pytest.fixture(scope="module")
def p25():
    return ProblemParams(N=3, s=0.5, p=2.5, gamma=0.5, alpha=29.0 / 24.0,
                         r_exp=1.2)


@pytest.fixture(scope="module")
def cache():
    return {}


def _missed(rep):
    return dataclasses.replace(rep, residual_norm=1.0, converged=False)


def _checks(report, prefix):
    return {c.name: c.passed for c in report.checks
            if c.name.startswith(prefix)}


def test_continuation_passes_when_every_level_is_stationary(settings, p2,
                                                            cache):
    report = VerificationReport(p2)
    verify._check_continuation(report, settings, p2, cache)
    assert _checks(report, "continuation-monotone") == {
        "continuation-monotone": True}
    assert not report.notes


def test_continuation_fails_on_a_missed_level(settings, p2, cache,
                                              monkeypatch):
    real = solver.minimize_Jn

    def miss_level_2(prob, init, tol):
        u, rep = real(prob, init, tol)
        return u, (_missed(rep) if prob.n == 2 else rep)

    monkeypatch.setattr(solver, "minimize_Jn", miss_level_2)
    report = VerificationReport(p2)
    verify._check_continuation(report, settings, p2, cache)
    assert _checks(report, "continuation-monotone") == {
        "continuation-monotone": False}
    assert any("level n=2 missed stationarity" in n for n in report.notes)


def test_truncation_passes_when_every_solve_is_stationary(settings, p25,
                                                          cache):
    report = VerificationReport(p25)
    verify._check_truncation(report, settings, p25, cache)
    assert set(_checks(report, "truncation-order").values()) == {True}
    assert not [n for n in report.notes if "missed" in n]


def test_truncation_fails_on_a_missed_solve(settings, p25, cache,
                                            monkeypatch):
    real = verify.solve_full

    def miss_half(params, grid, K, u_bar, kappa, tol):
        u, rep = real(params, grid, K, u_bar, kappa, tol)
        return u, (_missed(rep) if kappa == 0.5 else rep)

    monkeypatch.setattr(verify, "solve_full", miss_half)
    report = VerificationReport(p25)
    verify._check_truncation(report, settings, p25, cache)
    assert _checks(report, "truncation-order") == {
        "truncation-order-kappa-0": True,
        "truncation-order-kappa-0.5": False,
        "truncation-order-kappa-1": True,
    }
    assert any("kappa=0.5 missed stationarity" in n for n in report.notes)


def test_truncation_fails_when_its_floor_missed(settings, p25, cache,
                                                monkeypatch):
    real = verify.solve_pure_singular

    def miss_last_level(params, grid, K, schedule, tol):
        u, reports = real(params, grid, K, schedule, tol)
        return u, reports[:-1] + [_missed(reports[-1])]

    monkeypatch.setattr(verify, "solve_pure_singular", miss_last_level)
    report = VerificationReport(p25)
    verify._check_truncation(report, settings, p25, cache)
    assert set(_checks(report, "truncation-order").values()) == {False}
    assert any("truncation level n=4 missed stationarity" in n
               for n in report.notes)


def test_capacitary_passes_when_its_solve_is_stationary(settings, p2, cache):
    report = VerificationReport(p2)
    verify._check_capacitary(report, settings, p2, cache)
    assert set(_checks(report, "capacitary-").values()) == {True}
    assert not report.notes


def test_capacitary_fails_on_a_missed_solve(settings, p2, cache,
                                            monkeypatch):
    # a profile 1e-6 off the solution on its free nodes still decays at
    # the capacitary rate, stays monotone and under the plateau cap, but
    # it is not stationary, so every capacitary check must fail
    real = verify.solve_capacitary

    def off_by_1e6(R, params, grid, K, tol):
        u = real(R, params, grid, K, tol)
        vals = u.values.copy()
        vals[grid.nodes > R] *= 1.0 - 1e-6
        return dataclasses.replace(u, values=vals)

    monkeypatch.setattr(verify, "solve_capacitary", off_by_1e6)
    report = VerificationReport(p2)
    verify._check_capacitary(report, settings, p2, cache)
    assert set(_checks(report, "capacitary-").values()) == {False}
    assert any("capacitary solve R=1 missed stationarity" in n
               for n in report.notes)


def test_one_assembly_per_node_set_and_its_clips_noted(settings, p2,
                                                      monkeypatch):
    # another tail exponent on the same nodes and (N, s, p) is derived
    # from the cached assembly; each assembly gets one clip note
    calls = []
    real = verify.assemble

    def counting(grid, params):
        calls.append(grid.tail_exponent)
        return real(grid, params)

    monkeypatch.setattr(verify, "assemble", counting)
    cache = {}
    g0, K0 = verify._grid_and_matrix(cache, p2, settings, 48, 0.0)
    g2, K2 = verify._grid_and_matrix(cache, p2, settings, 48, p2.beta_star)
    assert verify._grid_and_matrix(cache, p2, settings, 48, 0.0) == (g0, K0)
    assert calls == [0.0]
    assert K2.matches(g2) and K2.weights is K0.weights
    assert K0.tail_self == 0.0
    assert K2.tail_self > 0.0
    report = VerificationReport(p2)
    verify._note_clips(report, cache)
    assert report.notes == [
        f"assembly M=48, grading=1.03, N=3, sp=1, p=2: "
        f"adjacent_clips={K0.adjacent_clips} "
        f"(adjacent_clipped={K0.adjacent_clipped:.3e}), "
        f"correction_clips={K0.correction_clips} "
        f"(correction_clipped={K0.correction_clipped:.3e})"]


def test_riesz_ladder_fails_on_a_scaled_phi_table(p2, monkeypatch):
    # G times 1.01 at every knot, in tables of their own, so both G and
    # Phi read the scaled knots: C(beta) scales on the whole ladder, so
    # the shape still matches to round-off, but the calibration misses
    # 2/C_{N,s} by 1e-2 and the check must fail
    hermite = kernel._Hermite
    monkeypatch.setattr(kernel, "_TABLE_CACHE", {})
    monkeypatch.setattr(kernel, "_Hermite",
                        lambda x0, h, y: hermite(x0, h, 1.01 * y))
    res = kernel.cross_check_p2(3, 0.5)
    assert res.max_rel_dev <= 1e-4
    assert res.calibration_error == pytest.approx(1e-2, rel=1e-6)
    assert not res.passes
    report = VerificationReport(p2)
    verify._check_riesz_ladder(report)
    assert _checks(report, "riesz-ladder-") == {
        "riesz-ladder-N3-s0.5": False, "riesz-ladder-N4-s0.4": False}
    assert any("calibration misses 2/normalization by 1.000e-02" in n
               for n in report.notes)
