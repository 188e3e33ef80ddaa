"""Write the bits of three kernel assemblies to ``OUT_DIR/kernel.json``.

    python .github/kernel_digest.py OUT_DIR

with the package to digest on ``PYTHONPATH``.  The three assemblies are
the README config (M = 256), the acceptance battery's p = 2 problem on
its finest grid (M = 512, grading 1.03^(1/2)) and (N, s, p) =
(3, 0.3, 2.2) on a uniform M = 256 grid.  For each, the file holds the
sha256 of ``weights`` and of every tail block's ``W``, ``g`` and ``xi``,
and the ``repr`` of ``tail_self``, ``assembly_error`` and the four clip
fields, so any moved bit of K shows as a moved entry.  The script calls
only ``parse_config``, ``make_radial_grid``, ``ProblemParams``,
``assemble`` and the ``KernelMatrix`` fields, which the base commit of a
comparison has as well, so one copy of it digests both sides;
``.github/compare_outputs.py`` lists the entries that differ.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

from fracp.config import parse_config
from fracp.grid import make_radial_grid
from fracp.operator import assemble
from fracp.params import ProblemParams

README_CONFIG = """\
params.N = 3
params.s = 0.5
params.p = 2.5
params.gamma = 0.5
params.r_exp = 1.2
kappa = 0.5
grid.nodes = 256
"""

FIELDS = ("tail_self", "assembly_error", "adjacent_clips", "adjacent_clipped",
          "correction_clips", "correction_clipped")


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _digest(K) -> dict:
    out = {"weights": _sha(K.weights),
           "tail": [{"start": blk.start, "W": _sha(blk.W), "g": _sha(blk.g),
                     "xi": _sha(blk.xi)} for blk in K.tail]}
    out.update((name, repr(getattr(K, name))) for name in FIELDS)
    return out


def _assemblies():
    cfg = parse_config(README_CONFIG)
    yield "readme-M256", cfg.build_grid(), cfg.params
    p2 = ProblemParams(N=3, s=0.5, p=2.0, gamma=0.5, alpha=1.5)
    yield "p2-M512", make_radial_grid(tail_exponent=p2.beta_star,
                                      R_max=64.0, M=512,
                                      grading=1.03 ** 0.5), p2
    uni = ProblemParams.kernel_only(3, 0.3, 2.2)
    yield "uniform-N3-s0.3-p2.2-M256", make_radial_grid(
        tail_exponent=uni.beta_star, R_max=64.0, M=256, grading=1.0), uni


def main(argv) -> int:
    (out_dir,) = argv
    digests = {name: _digest(assemble(grid, params))
               for name, grid, params in _assemblies()}
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "kernel.json"), "w", encoding="ascii",
              newline="\n") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
