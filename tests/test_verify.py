"""The battery acts on the solver's reports, not only on the profiles.

A solve that stops short of its stationarity tolerance can still return
a profile that orders correctly, so the continuation and truncation
checks must fail on the report itself.  The solvers are wrapped to
return a report with a missed residual (the profile is left as solved),
on a small grid so each check runs in well under a second.  The
capacitary solve returns no report; its checks fail on the free-node
residual of the profile, which the wrapper moves off the solution.
"""

import dataclasses

import pytest

from fracp import solver, verify
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
