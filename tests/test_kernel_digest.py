"""The CI step's digest of kernel assemblies and solves
(``.github/kernel_digest.py``).

The script runs on both sides of the comparison with the base commit,
so it must write the same bytes on every run and name every field of K
and every solver result that the comparison is meant to see.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, ".github", "kernel_digest.py")


def test_kernel_digest_is_deterministic_and_complete(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    texts, solves = [], []
    for run in ("first", "second"):
        subprocess.run([sys.executable, SCRIPT, str(tmp_path / run)],
                       env=env, check=True, timeout=300)
        texts.append((tmp_path / run / "kernel.json").read_bytes())
        solves.append((tmp_path / run / "solve.json").read_bytes())
    assert texts[0] == texts[1]
    assert solves[0] == solves[1]
    _check_solve_digest(json.loads(solves[0]))
    digests = json.loads(texts[0])
    assert sorted(digests) == ["p2-M512", "readme-M256",
                               "uniform-N3-s0.3-p2.2-M256"]
    for entry in digests.values():
        assert sorted(entry) == sorted([
            "weights", "tail", "tail_self", "assembly_error",
            "adjacent_clips", "adjacent_clipped", "correction_clips",
            "correction_clipped"])
        assert [blk["start"] for blk in entry["tail"]][0] == 0
        assert len(entry["tail"]) == 2
        for blk in entry["tail"]:
            assert sorted(blk) == ["W", "g", "start", "xi"]
            assert all(len(blk[k]) == 64 for k in ("W", "g", "xi"))
        assert len(entry["weights"]) == 64
        float(entry["assembly_error"])


def _check_solve_digest(solve):
    report_fields = sorted(["iterations", "final_energy", "residual_norm",
                            "line_search_failures", "converged"])
    assert sorted(solve) == ["functional-M64", "functional-p2", "solve-M512"]
    functionals = solve["functional-M64"]
    assert sorted(functionals) == sorted(
        [f"regularized-n{n}" for n in (1, 2, 1024)]
        + [f"truncated-kappa{k}" for k in ("0", "0.5", "1")])
    for entry in functionals.values():
        assert sorted(entry) == ["J", "gradient", "hessian"]
        float(entry["J"])
        assert len(entry["gradient"]) == len(entry["hessian"]) == 64
    p2 = solve["functional-p2"]
    assert sorted(p2) == sorted([f"regularized-M64-n{n}" for n in (1, 2, 1024)]
                                + ["regularized-M512-n1024"])
    for name, entry in p2.items():
        again = ["hessian-again"] if name == "regularized-M512-n1024" else []
        assert sorted(entry) == sorted(["J", "gradient", "hessian"] + again)
        float(entry["J"])
        assert all(len(entry[k]) == 64 for k in entry if k != "J")
    # a second Hessian of a point is the first, bit for bit
    assert p2["regularized-M512-n1024"]["hessian-again"] \
        == p2["regularized-M512-n1024"]["hessian"]
    unit = solve["solve-M512"]
    assert sorted(unit) == ["capacitary-R1", "full-kappa0.1",
                            "full-kappa0.5", "full-kappa0.9", "pure-singular"]
    assert len(unit["capacitary-R1"]["u"]) == 64
    # the continuation runs n = 1, 2, 4, ..., 16384 unless it settles first
    reports = unit["pure-singular"]["reports"]
    assert 1 <= len(reports) <= 15
    for rep in reports:
        assert sorted(rep) == report_fields
    for kappa in ("0.1", "0.5", "0.9"):
        entry = unit[f"full-kappa{kappa}"]
        assert len(entry["u"]) == 64
        assert sorted(entry["report"]) == report_fields
