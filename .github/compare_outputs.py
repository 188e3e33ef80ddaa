"""List how the outputs of two fracp runs differ, as Markdown.

    python .github/compare_outputs.py BASE_DIR CHANGE_DIR

Both directories hold the same output files (``report.json`` and the
CLI's CSVs, in any subdirectories).  For every file whose bytes differ:

* a CSV gets, per numeric column, the number of rows that moved, the
  largest relative change (over the entries that are not 0 on the base
  side) and the largest absolute change, also as a fraction of the
  column's largest base |value|, plus every header comment line that
  changed.  The fraction tells a round-off move of a column that
  crosses 0 (a residual) from a real one, where the entrywise relative
  change of an entry near 0 reads large;
* ``report.json`` gets every moved value as ``base -> change``, the
  checks keyed by name, every flipped ``pass`` flag in bold, and the
  lines of a multi-line string (the notes) that changed, were added or
  were removed.  The two sides' lines are aligned by
  ``difflib.SequenceMatcher``, so one inserted or deleted line does not
  report every line after it as changed.

The script only reports; its exit code is 0 unless a file cannot be
read.
"""

from __future__ import annotations

import csv
import difflib
import json
import math
import os
import sys


def _files(root):
    for dirpath, _, names in os.walk(root):
        for name in names:
            yield os.path.relpath(os.path.join(dirpath, name), root)


def _read_csv(path):
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    return comments, rows[0], rows[1:]


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _compare_csv(base, change):
    out = []
    c_base, head_base, rows_base = _read_csv(base)
    c_change, head_change, rows_change = _read_csv(change)
    for old, new in zip(c_base, c_change):
        if old != new:
            out.append(f"  - header `{old}` -> `{new}`")
    if len(c_base) != len(c_change):
        out.append(f"  - header lines {len(c_base)} -> {len(c_change)}")
    if head_base != head_change or len(rows_base) != len(rows_change):
        out.append(f"  - shape changed: columns {head_base} -> "
                   f"{head_change}, rows {len(rows_base)} -> "
                   f"{len(rows_change)}")
        return out
    for j, name in enumerate(head_base):
        rel, absolute, scale, moved = 0.0, 0.0, 0.0, 0
        numeric = True
        for rb, rc in zip(rows_base, rows_change):
            b, c = _number(rb[j]), _number(rc[j])
            if b is None or c is None:
                numeric = False
                moved += rb[j] != rc[j]
                continue
            if not math.isnan(b):
                scale = max(scale, abs(b))
            if b == c or (math.isnan(b) and math.isnan(c)):
                continue
            moved += 1
            absolute = max(absolute, abs(c - b))
            if b != 0.0:
                rel = max(rel, abs(c - b) / abs(b))
        if not moved:
            continue
        if not numeric:
            out.append(f"  - `{name}`: {moved}/{len(rows_base)} rows differ "
                       "(not numeric)")
            continue
        line = (f"  - `{name}`: {moved}/{len(rows_base)} rows, largest "
                f"relative change {rel:.3g}, largest absolute change "
                f"{absolute:.3g}")
        if scale > 0.0:
            line += (f" ({absolute / scale:.3g} of the column's largest "
                     "base |value|)")
        out.append(line)
    return out


def _compare_lines(key, old, new):
    """The lines of ``old`` and ``new`` that changed, were removed or
    were added, in order; a changed line carries its base line number."""
    a, b = old.splitlines(), new.splitlines()
    out = []
    matcher = difflib.SequenceMatcher(None, a, b, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        paired = min(i2 - i1, j2 - j1)  # a replaced block, line by line
        out += [f"  - `{key}` line {i1 + k + 1}: {a[i1 + k]!r} -> "
                f"{b[j1 + k]!r}" for k in range(paired)]
        out += [f"  - `{key}` line {i + 1} removed: {a[i]!r}"
                for i in range(i1 + paired, i2)]
        out += [f"  - `{key}` added as line {j + 1}: {b[j]!r}"
                for j in range(j1 + paired, j2)]
    if len(a) != len(b):
        out.append(f"  - `{key}`: {len(a)} -> {len(b)} lines")
    return out


def _flatten(value, path, into):
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{path}.{key}" if path else key, into)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            key = item.get("name", k) if isinstance(item, dict) else k
            _flatten(item, f"{path}[{key}]", into)
    else:
        into[path] = value


def _compare_report(base, change):
    with open(base) as fh:
        flat_base = {}
        _flatten(json.load(fh), "", flat_base)
    with open(change) as fh:
        flat_change = {}
        _flatten(json.load(fh), "", flat_change)
    out = []
    for key in sorted(set(flat_base) | set(flat_change),
                      key=lambda k: (k not in flat_base, k)):
        old = flat_base.get(key, "(absent)")
        new = flat_change.get(key, "(absent)")
        if old == new:
            continue
        if isinstance(old, str) and isinstance(new, str) and "\n" in old:
            out += _compare_lines(key, old, new)
            continue
        line = f"  - `{key}`: {old!r} -> {new!r}"
        if key.endswith("].pass"):
            line = f"  - **pass flag flipped** `{key}`: {old!r} -> {new!r}"
        out.append(line)
    return out


def main(argv):
    base_dir, change_dir = argv
    lines = []
    for rel in sorted(set(_files(base_dir)) | set(_files(change_dir))):
        base = os.path.join(base_dir, rel)
        change = os.path.join(change_dir, rel)
        if not (os.path.exists(base) and os.path.exists(change)):
            side = "base" if os.path.exists(base) else "change"
            lines.append(f"- `{rel}`: only on the {side} side")
            continue
        with open(base, "rb") as fb, open(change, "rb") as fc:
            if fb.read() == fc.read():
                continue
        lines.append(f"- `{rel}`")
        if rel.endswith(".csv"):
            lines += _compare_csv(base, change)
        elif rel.endswith(".json"):
            lines += _compare_report(base, change)
    print("\n".join(lines) if lines else "no output file moved")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
