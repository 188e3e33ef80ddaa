"""The CI step's digest of kernel assemblies (``.github/kernel_digest.py``).

The script runs on both sides of the comparison with the base commit,
so it must write the same bytes on every run and name every field of K
that the comparison is meant to see.
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
    texts = []
    for run in ("first", "second"):
        subprocess.run([sys.executable, SCRIPT, str(tmp_path / run)],
                       env=env, check=True, timeout=300)
        texts.append((tmp_path / run / "kernel.json").read_bytes())
    assert texts[0] == texts[1]
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
