"""The acceptance gate: eleven criteria over the verification battery.

The battery runs once per session at its default settings (the same ones
``fracp verify`` uses with a stock config) and each criterion below owns
one test that prints a single checklist line, so

    pytest -s tests/test_acceptance.py

reads as the gate summary.  Tolerances are asserted literally: loosening
one here is a deliberate act, not a side effect of refactoring.
"""

import math

import pytest

from fracp.verify import run_acceptance


@pytest.fixture(scope="session")
def report():
    return run_acceptance()


def _take(report, *prefixes):
    recs = [c for c in report.checks
            if any(c.name.startswith(p) for p in prefixes)]
    assert recs, f"no battery records match {prefixes}"
    return recs


def _checklist(k, title, recs):
    ok = all(r.passed for r in recs)
    body = "; ".join(f"{r.name}={r.measured:.6g}" for r in recs)
    print(f"criterion {k:02d} {title}: {'PASS' if ok else 'FAIL'} ({body})")


def test_criterion_01_profile_constant_vanishes(report):
    """c_beta crosses zero exactly at the capacitary rate, three setups."""
    recs = _take(report, "cbeta-zero-")
    _checklist(1, "profile constant zero at beta_star", recs)
    assert len(recs) == 3
    for r in recs:
        assert r.tolerance == 1e-8
        assert r.passed, f"{r.name}: ratio {r.measured} above {r.tolerance}"


def test_criterion_02_closed_form_ladder(report):
    """p=2 profile constants match the Gamma-function ladder: its shape,
    and its calibration against the closed-form constant 2/C_{N,s}."""
    recs = _take(report, "riesz-ladder-")
    _checklist(2, "closed-form calibration ladder", recs)
    assert len(recs) == 2
    for r in recs:
        assert r.tolerance == 1e-4
        assert r.passed, f"{r.name}: rel dev {r.measured}"
    # each record passes only with its calibration within 1e-8 of the
    # constant; a note records the miss against that bound
    notes = "\n".join(report.notes)
    assert notes.count("calibration misses 2/normalization by") == 2
    assert notes.count("relative (bound 1e-08)") == 2
    assert "above beta_star" in notes, \
        "the sign measured above beta_star must be recorded"


def test_criterion_03_operator_identities(report):
    """Constant profiles, p-homogeneity, and the p=2 pairing identity."""
    recs = _take(report, "constant-residual", "energy-homogeneity",
                 "residual-homogeneity", "pairing-identity-p2")
    _checklist(3, "discrete operator identities", recs)
    assert len(recs) == 4
    for r in recs:
        assert r.tolerance == 1e-10
        assert r.passed, f"{r.name}: {r.measured}"


def test_criterion_04_gradient_consistency(report):
    """Functional gradient against central differences, 20 directions."""
    recs = _take(report, "gradient-fd")
    _checklist(4, "gradient vs finite differences", recs)
    assert recs[0].tolerance == 1e-6
    assert recs[0].passed, f"worst relative deviation {recs[0].measured}"


def test_criterion_05_fundamental_profile(report):
    """r^-beta_star nearly annihilates the operator, and refining helps."""
    recs = _take(report, "fundsol-")
    _checklist(5, "fundamental decay profile", recs)
    by_name = {r.name: r for r in recs}
    res = by_name["fundsol-residual"]
    assert res.tolerance == 0.02
    assert res.passed, f"normalized residual {res.measured}"
    ref = by_name["fundsol-refinement"]
    assert ref.target == 1.6
    assert ref.passed, f"refinement ratio {ref.measured} below {ref.target}"
    assert ref.measured >= 1.6


def test_criterion_06_capacitary_solution(report):
    """Unit plateau: decay rate, amplitude cap, and monotonicity."""
    recs = _take(report, "capacitary-")
    _checklist(6, "capacitary plateau solution", recs)
    by_name = {r.name: r for r in recs}
    assert by_name["capacitary-exponent"].tolerance == 0.05
    # the amplitude cap is 1.05 * p^(1/(p-1)); the battery runs it at p=2
    assert by_name["capacitary-plateau"].target == pytest.approx(2.1)
    assert by_name["capacitary-monotone"].tolerance == 1e-8
    for r in recs:
        assert r.passed, f"{r.name}: {r.measured} vs {r.target}"


def test_criterion_07_continuation_monotone(report):
    """Regularized solutions increase in n with flat energy scale."""
    recs = _take(report, "continuation-")
    _checklist(7, "regularization continuation", recs)
    by_name = {r.name: r for r in recs}
    assert by_name["continuation-monotone"].tolerance == 1e-8
    assert by_name["continuation-energy-flat"].target == 2.0
    for r in recs:
        assert r.passed, f"{r.name}: {r.measured}"


def test_criterion_08_pure_singular_limit(report):
    """The limit profile is positive with the capacitary tail rate."""
    recs = _take(report, "pure-singular-")
    _checklist(8, "pure singular limit", recs)
    by_name = {r.name: r for r in recs}
    assert by_name["pure-singular-exponent"].tolerance == 0.1
    for r in recs:
        assert r.passed, f"{r.name}: {r.measured}"
    for side in ("lower", "upper"):
        amp = by_name[f"pure-singular-{side}-amplitude"].measured
        assert math.isfinite(amp) and amp > 0.0
    assert any("binding bound" in n for n in report.notes), \
        "which sandwich side binds must be recorded"


def test_criterion_09_truncated_problem(report):
    """Full solutions dominate the singular one for each growth weight."""
    recs = _take(report, "truncation-")
    _checklist(9, "truncated full problem", recs)
    by_name = {r.name: r for r in recs}
    for kappa in ("0", "0.5", "1"):
        r = by_name[f"truncation-order-kappa-{kappa}"]
        assert r.tolerance == 1e-8
        assert r.passed, f"kappa={kappa}: worst normalized drop {r.measured}"
    gap = by_name["truncation-kappa0-gap"]
    assert gap.tolerance == 1e-4
    assert gap.passed, f"kappa=0 should reproduce the limit: {gap.measured}"
    tail = by_name["truncation-tail-positive"]
    assert tail.passed and tail.measured > 0.0


def test_criterion_10_infimum_quotient(report):
    """Scale-invariant positivity quotient lands in (0, 1]."""
    recs = _take(report, "harnack-")
    _checklist(10, "positivity quotient", recs)
    by_name = {r.name: r for r in recs}
    sigma = by_name["harnack-sigma"]
    assert 0.0 < sigma.measured <= 1.0
    assert sigma.passed
    inv = by_name["harnack-invariance"]
    assert inv.tolerance == 1e-10
    assert inv.passed, f"scaling invariance defect {inv.measured}"
    assert report.harnack is not None and report.harnack["R"] == 4.0


def test_criterion_11_comparison_principle(report):
    """Ordered pairs verify; the constructed bad pair is caught."""
    recs = _take(report, "comparison-")
    _checklist(11, "comparison principle", recs)
    by_name = {r.name: r for r in recs}
    pairs = by_name["comparison-pairs"]
    assert pairs.measured == 4.0 and pairs.passed
    neg = by_name["comparison-negative"]
    assert neg.passed, "the corrupted pair must be reported as a failure"
    assert any("negative comparison pair" in n for n in report.notes)


def test_battery_size(report):
    """30 checks under distinct names.  The per-criterion counts above add
    up to this; a change of the count is a stated contract change."""
    names = [c.name for c in report.checks]
    assert len(names) == 30
    assert len(set(names)) == len(names)
