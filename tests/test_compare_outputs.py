"""The CI step that lists what moved between two runs' outputs.

``.github/compare_outputs.py`` is a script, not part of the package; it
is loaded by path and driven on small hand-made output directories whose
differences are known, so every line it prints is checked against them.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), ".github", "compare_outputs.py")

CSV = "# a header\nr,u\n1.0,2.0\n2.0,4.0\n3.0,8.0\n"
REPORT = {"checks": [{"name": "decay-rate", "pass": True, "value": 1.5},
                     {"name": "gradient-fd", "pass": True, "value": 2e-9}],
          "notes": "first line\nsecond line"}


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


def _run(compare, capsys, base, change):
    assert compare.main([base, change]) == 0
    return capsys.readouterr().out


def _pair(tmp_path, base, change):
    return (_write(tmp_path / "base", base), _write(tmp_path / "change", change))


def test_identical_directories(compare, capsys, tmp_path):
    files = {"flow/u_bar.csv": CSV, "verify/report.json": json.dumps(REPORT)}
    out = _run(compare, capsys, *_pair(tmp_path, files, files))
    assert out == "no output file moved\n"


def test_moved_csv_column(compare, capsys, tmp_path):
    # u moves in two of three rows, by at most 25 % (relative) and 2.0
    # (absolute); r does not move and is not listed
    moved = CSV.replace("2.0,4.0", "2.0,5.0").replace("3.0,8.0", "3.0,10.0")
    out = _run(compare, capsys, *_pair(tmp_path, {"flow/u_bar.csv": CSV},
                                       {"flow/u_bar.csv": moved}))
    assert out.splitlines() == [
        "- `flow/u_bar.csv`",
        "  - `u`: 2/3 rows, largest relative change 0.25, largest "
        "absolute change 2 (0.25 of the column's largest base |value|)",
    ]


def test_round_off_move_of_a_column_through_0(compare, capsys, tmp_path):
    # a residual column crosses 0: an entry of 2.7e-16 that moves to
    # 5.3e-15 is a relative change of 18.6, but the move is 5.03e-15
    # against a column whose largest |value| is 4e-10, which is what
    # tells it for round-off; a column of zeros has no such scale
    base = "r,residual,zero\n1,2.7e-16,0\n2,-3.1e-10,0\n3,4.0e-10,0\n"
    change = base.replace("2.7e-16,0", "5.3e-15,1e-300")
    out = _run(compare, capsys, *_pair(tmp_path, {"u_bar.csv": base},
                                       {"u_bar.csv": change}))
    assert out.splitlines() == [
        "- `u_bar.csv`",
        "  - `residual`: 1/3 rows, largest relative change 18.6, largest "
        "absolute change 5.03e-15 (1.26e-05 of the column's largest base "
        "|value|)",
        "  - `zero`: 1/3 rows, largest relative change 0, largest "
        "absolute change 1e-300",
    ]


def test_flipped_pass_flag(compare, capsys, tmp_path):
    flipped = json.loads(json.dumps(REPORT))
    flipped["checks"][0]["pass"] = False
    flipped["checks"][1]["value"] = 3e-9
    out = _run(compare, capsys,
               *_pair(tmp_path, {"report.json": json.dumps(REPORT)},
                      {"report.json": json.dumps(flipped)}))
    assert out.splitlines() == [
        "- `report.json`",
        "  - **pass flag flipped** `checks[decay-rate].pass`: True -> False",
        "  - `checks[gradient-fd].value`: 2e-09 -> 3e-09",
    ]


def test_note_lines_inserted_and_removed(compare, capsys, tmp_path):
    # the lines are aligned, not paired by index: one inserted line and
    # one removed line leave the lines between them unreported
    base = dict(REPORT, notes="first\nsecond\nthird\nfourth")
    change = dict(REPORT, notes="first\nnew\nsecond\nthird, changed")
    out = _run(compare, capsys,
               *_pair(tmp_path, {"report.json": json.dumps(base)},
                      {"report.json": json.dumps(change)}))
    assert out.splitlines() == [
        "- `report.json`",
        "  - `notes` added as line 2: 'new'",
        "  - `notes` line 3: 'third' -> 'third, changed'",
        "  - `notes` line 4 removed: 'fourth'",
    ]


def test_file_on_one_side_only(compare, capsys, tmp_path):
    out = _run(compare, capsys,
               *_pair(tmp_path, {"u_bar.csv": CSV},
                      {"u_bar.csv": CSV, "loglog.csv": CSV}))
    assert out == "- `loglog.csv`: only on the change side\n"


def test_script_exits_0_when_outputs_moved(tmp_path):
    # the script only reports: a moved output is not a failure
    base, change = _pair(tmp_path, {"u_bar.csv": CSV},
                         {"u_bar.csv": CSV.replace("8.0", "9.0")})
    done = subprocess.run([sys.executable, SCRIPT, base, change],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("- `u_bar.csv`\n")
