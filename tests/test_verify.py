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
from fracp.grid import grid_difference


@pytest.fixture(scope="module")
def settings():
    return verify.VerifySettings(M=48, M_coarse=32, M_fine=96,
                                 schedule_max_n=4, trunc_max_n=4)


def _missed(rep):
    return dataclasses.replace(rep, residual_norm=1.0, converged=False)


def _checks(report, prefix):
    return {c.name: c.passed for c in report.checks
            if c.name.startswith(prefix)}


def test_continuation_passes_when_every_level_is_stationary(settings):
    b = verify._Battery(settings)
    verify._check_continuation(b)
    assert _checks(b.report, "continuation-monotone") == {
        "continuation-monotone": True}
    assert not b.report.notes


def test_continuation_fails_on_a_missed_level(settings, monkeypatch):
    real = solver.minimize_Jn

    def miss_level_2(prob, init, tol):
        u, rep = real(prob, init, tol)
        return u, (_missed(rep) if prob.n == 2 else rep)

    monkeypatch.setattr(solver, "minimize_Jn", miss_level_2)
    b = verify._Battery(settings)
    verify._check_continuation(b)
    assert _checks(b.report, "continuation-monotone") == {
        "continuation-monotone": False}
    assert any("level n=2 missed stationarity" in n for n in b.report.notes)


def test_truncation_passes_when_every_solve_is_stationary(settings):
    b = verify._Battery(settings)
    verify._check_truncation(b)
    assert set(_checks(b.report, "truncation-order").values()) == {True}
    assert not [n for n in b.report.notes if "missed" in n]


def test_truncation_fails_on_a_missed_solve(settings, monkeypatch):
    real = verify.solve_full

    def miss_half(params, grid, K, u_bar, kappa, tol):
        u, rep = real(params, grid, K, u_bar, kappa, tol)
        return u, (_missed(rep) if kappa == 0.5 else rep)

    monkeypatch.setattr(verify, "solve_full", miss_half)
    b = verify._Battery(settings)
    verify._check_truncation(b)
    assert _checks(b.report, "truncation-order") == {
        "truncation-order-kappa-0": True,
        "truncation-order-kappa-0.5": False,
        "truncation-order-kappa-1": True,
    }
    assert any("kappa=0.5 missed stationarity" in n for n in b.report.notes)


def test_truncation_fails_when_its_floor_missed(settings, monkeypatch):
    real = verify.solve_pure_singular

    def miss_last_level(params, grid, K, schedule, tol):
        u, reports = real(params, grid, K, schedule, tol)
        return u, reports[:-1] + [_missed(reports[-1])]

    monkeypatch.setattr(verify, "solve_pure_singular", miss_last_level)
    b = verify._Battery(settings)
    verify._check_truncation(b)
    assert set(_checks(b.report, "truncation-order").values()) == {False}
    assert any("truncation level n=4 missed stationarity" in n
               for n in b.report.notes)


def test_capacitary_passes_when_its_solve_is_stationary(settings):
    b = verify._Battery(settings)
    verify._check_capacitary(b)
    assert set(_checks(b.report, "capacitary-").values()) == {True}
    assert not b.report.notes


def test_capacitary_fails_on_a_missed_solve(settings, monkeypatch):
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
    b = verify._Battery(settings)
    verify._check_capacitary(b)
    assert set(_checks(b.report, "capacitary-").values()) == {False}
    assert any("capacitary solve R=1 missed stationarity" in n
               for n in b.report.notes)


def test_one_assembly_per_node_set_and_its_clips_noted(settings,
                                                      monkeypatch):
    # another tail exponent on the same nodes and (N, s, p) is derived
    # from the cached assembly; each assembly gets one clip note
    calls = []
    real = verify.assemble

    def counting(grid, params):
        calls.append(grid.tail_exponent)
        return real(grid, params)

    monkeypatch.setattr(verify, "assemble", counting)
    b = verify._Battery(settings)
    P2 = verify.P2
    g0, K0 = b.matrix(P2, 48, 0.0)
    g2, K2 = b.matrix(P2, 48, P2.beta_star)
    assert b.matrix(P2, 48, 0.0) == (g0, K0)
    assert calls == [0.0]
    assert grid_difference(g2, K2.grid) is None and K2.weights is K0.weights
    assert K0.tail_self == 0.0
    assert K2.tail_self > 0.0
    b.note_clips()
    assert b.report.notes == [
        f"assembly M=48, grading=1.03, N=3, sp=1, p=2: "
        f"adjacent_clips={K0.adjacent_clips} "
        f"(adjacent_clipped={K0.adjacent_clipped:.3e}), "
        f"correction_clips={K0.correction_clips} "
        f"(correction_clipped={K0.correction_clipped:.3e})"]


def test_full_battery_makes_four_assemblies_and_one_derived_matrix(
        settings, monkeypatch):
    # the four node sets in the order the criteria first ask for them;
    # the beta_star grid at M_coarse is derived from the tail-0 assembly
    assembled, derived = [], []
    real_assemble, real_derive = verify.assemble, verify._with_tail_exponent

    def counting_assemble(grid, params):
        assembled.append((grid.M, grid.tail_exponent, params.p))
        return real_assemble(grid, params)

    def counting_derive(K, grid):
        derived.append((grid.M, grid.tail_exponent, K.p))
        return real_derive(K, grid)

    monkeypatch.setattr(verify, "assemble", counting_assemble)
    monkeypatch.setattr(verify, "_with_tail_exponent", counting_derive)
    report = verify.run_acceptance(settings)
    P2, P25 = verify.P2, verify.P25
    assert assembled == [(32, 0.0, 2.0), (48, P25.beta_star, 2.5),
                         (48, P2.beta_star, 2.0), (96, P2.beta_star, 2.0)]
    assert derived == [(32, P2.beta_star, 2.0)]
    assert len(report.checks) == 30
    assert sum(n.startswith("assembly M=") for n in report.notes) == 4


def test_a_criterion_alone_matches_the_full_battery(settings):
    # the comparison criterion reads u_bar; run first on a fresh battery
    # it solves the continuation itself and must record what the full
    # battery records for it, with no note of the continuation's own
    full = verify.run_acceptance(settings)
    b = verify._Battery(settings)
    verify._check_comparison(b)
    assert b.report.checks == [c for c in full.checks
                               if c.name.startswith("comparison-")]
    assert len(b.report.checks) == 2
    assert b.report.notes == [n for n in full.notes
                              if "comparison pair" in n]
    assert b.report.notes


def test_riesz_ladder_fails_on_a_scaled_phi_table(settings, monkeypatch):
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
    b = verify._Battery(settings)
    verify._check_riesz_ladder(b)
    assert _checks(b.report, "riesz-ladder-") == {
        "riesz-ladder-N3-s0.5": False, "riesz-ladder-N4-s0.4": False}
    assert any("calibration misses 2/normalization by 1.000e-02" in n
               for n in b.report.notes)
