"""Tests for the benchmark's own code: span arithmetic and the wrappers."""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import spans  # noqa: E402
from fracp import verify  # noqa: E402


class _FakeReport:
    iterations = 3
    line_search_failures = 1
    residual_norm = 2e-6
    converged = False


def _tracer(spans_list):
    t = spans.Tracer()
    t.spans = spans_list
    return t


def test_self_times_subtract_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    s = [["verify.run_acceptance", -1, 0.0, 10.0],
         ["operator.assemble", 0, 1.0, 4.0],
         ["quadrature.integrate", 1, 2.0, 3.0],
         ["solver.minimize_Jn", 0, 5.0, 9.0]]
    assert spans.self_times(s) == [3.0, 2.0, 1.0, 4.0]
    m = spans.layer_metrics(_tracer(s))
    assert m["verify.self_s"] == 3.0
    assert m["operator.self_s"] == 2.0
    assert m["operator.assemble.self_s"] == 2.0
    assert m["quadrature.integrate.self_s"] == 1.0
    assert m["solver.self_s"] == 4.0
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == 10.0


def test_inclusive_metrics_count_outermost_spans_once():
    # a constant that calls the result routine, then a bare result call,
    # all under a fundamental-residual span
    s = [["analysis.fundamental_residual", -1, 0.0, 8.0],
         ["kernel.power_profile_constant", 0, 1.0, 4.0],
         ["kernel.power_profile_result", 1, 1.5, 3.5],
         ["quadrature.integrate", 2, 2.0, 3.0],
         ["kernel.power_profile_result", 0, 5.0, 7.0]]
    m = spans.layer_metrics(_tracer(s))
    assert m["kernel.profile_constant.calls"] == 2
    assert m["kernel.profile_constant.s"] == 3.0 + 2.0
    assert m["analysis.fundamental_residual.s"] == 8.0
    assert m["analysis.self_s"] == 8.0 - 3.0 - 2.0
    assert m["kernel.self_s"] == (3.0 - 2.0) + (2.0 - 1.0) + 2.0


def test_solver_counters_read_reports_at_the_end():
    t = spans.Tracer()
    rep = _FakeReport()
    t.reports = [(rep, 1e-5, True), (rep, 1e-6, False)]
    m = spans.layer_metrics(t)
    assert m["solver.levels"] == 1
    assert m["solver.newton_iters"] == 6
    assert m["solver.line_search_failures"] == 2
    assert m["solver.stationarity_misses"] == 1


def _wrapped_bindings():
    return [(name, attr) for name, mod in list(sys.modules.items())
            if mod is not None and name.startswith("fracp")
            for attr, value in vars(mod).items()
            if hasattr(value, "__perfbench_span__")]


def test_wrappers_cover_every_binding_and_are_restored():
    import fracp.grid
    import fracp.operator
    import fracp.solver
    originals = {(mod.__name__, attr): getattr(mod, attr) for mod, attr in (
        (fracp.operator, "weak_residual"), (fracp.solver, "weak_residual"),
        (fracp.verify, "assemble"), (fracp.operator, "assemble"),
        (fracp.grid, "unit_ball_volume"))}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert fracp.solver.weak_residual is fracp.operator.weak_residual
        assert fracp.verify.assemble is fracp.operator.assemble
        assert fracp.verify.assemble.__perfbench_span__ == "operator.assemble"
        for (name, attr), fn in originals.items():
            assert getattr(sys.modules[name], attr) is not fn
        # a call through a copied binding is seen under the defining layer
        fracp.grid.unit_ball_volume(3)
        assert [s[0] for s in tracer.spans] == ["kernel.unit_ball_volume"]
        patched = tracer.bindings
    finally:
        tracer.uninstall()
    assert len(patched) > len(originals)
    for mod, attr, original in patched:
        assert getattr(mod, attr) is original
    for (name, attr), fn in originals.items():
        assert getattr(sys.modules[name], attr) is fn
    assert _wrapped_bindings() == []


def test_traced_battery_writes_identical_report(tmp_path):
    # small grids keep this quick; the benchmark's traced runs repeat the
    # comparison at full size against the untraced units
    settings = verify.VerifySettings(M=48, M_coarse=32, M_fine=96,
                                     schedule_max_n=8, trunc_max_n=64)
    paths = [tmp_path / "plain.json", tmp_path / "traced.json"]
    _, _, none = child._traced(
        False, lambda: verify.run_acceptance(settings, out_path=paths[0]))
    _, _, summary = child._traced(
        True, lambda: verify.run_acceptance(settings, out_path=paths[1]))
    assert none is None
    assert summary["metrics"]["verify.checks"] == 30
    assert summary["spans"]["verify.run_acceptance"]["calls"] == 1
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert _wrapped_bindings() == []


_FAKE_RUN = """
import run

def broken(r, seed, trace, tmp):
    r.attempted += 2
    r.fail("unit 1")
    r.fail("unit 2")
    return {"seed": seed}

def fine(r, seed, trace, tmp):
    r.attempted += 3
    r.wall, r.setup, r.rss = [1.0, 2.0, 3.0], [0.5], [10.0]
    return {"seed": seed}

run.WORKLOADS = {"broken": broken, "fine": fine}
raise SystemExit(run.main(["--workload", "all", "--seed", "1",
                           "--seconds", "1"]))
"""


def test_failed_workload_still_prints_the_result_line():
    # run.py pins thread variables on import, so it runs in its own process
    proc = subprocess.run([sys.executable, "-c", _FAKE_RUN], cwd=HERE,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (5, 2)
    assert sorted(result["metrics"]) == ["fine.peak_rss_mb", "fine.setup_s",
                                         "fine.wall_s"]
    assert result["metrics"]["fine.wall_s"]["value"] == 2.0
