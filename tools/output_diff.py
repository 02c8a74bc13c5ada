"""How far two trees of stage outputs differ, file by file.

``OLD`` and ``NEW`` are directories such as two ``tools/output_hashes.py
--keep`` trees, one per checkout::

    PYTHONPATH=<old>/src python3 tools/output_hashes.py --keep old/ > old.txt
    PYTHONPATH=<new>/src python3 tools/output_hashes.py --keep new/ > new.txt
    python3 tools/output_diff.py old/ new/

This prints one line per file whose bytes differ, sorted by path.  For a CSV
file whose rows and columns line up it gives the number of numeric cells that
differ and the largest relative difference among them, |a - b| / max(|a|, |b|),
then the number of other cells that differ, if any; for any other file it says
``bytes differ``.  A file in one tree only is named as such.  The exit code
is 0 when every file is the same, 1 when some differ and 2 on a usage error.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from pathlib import Path


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))


def describe(old: bytes, new: bytes, name: str) -> str | None:
    """None when ``old`` and ``new`` are the same bytes, else how the file
    ``name`` differs."""
    if old == new:
        return None
    if not name.endswith(".csv"):
        return "bytes differ"
    try:
        a, b = _csv_rows(old), _csv_rows(new)
    except (UnicodeDecodeError, csv.Error):
        return "bytes differ"
    if len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
        return "bytes differ (rows or columns differ)"
    numeric, other, largest = 0, 0, 0.0
    for x, y in zip(a, b):
        for p, q in zip(x, y):
            if p == q:
                continue
            u, v = _number(p), _number(q)
            if u is None or v is None:
                other += 1
            else:
                numeric += 1
                largest = max(largest, _relative(u, v))
    parts = []
    if numeric:
        parts.append(f"numeric cells differing: {numeric}, largest relative difference "
                     f"{largest:.1e}")
    if other:
        parts.append(f"other cells differing: {other}")
    return ", ".join(parts) or "bytes differ (line endings or quoting)"


def diff_trees(old: Path, new: Path) -> list[str]:
    """One ``<path>: <how it differs>`` line per file that differs."""
    def files(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    in_old, in_new = files(old), files(new)
    lines = []
    for name in sorted(in_old | in_new):
        if name not in in_new:
            lines.append(f"{name}: only in {old}")
        elif name not in in_old:
            lines.append(f"{name}: only in {new}")
        else:
            how = describe((old / name).read_bytes(), (new / name).read_bytes(), name)
            if how is not None:
                lines.append(f"{name}: {how}")
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(Path(a).is_dir() for a in argv):
        print("usage: output_diff.py OLD NEW (two directories)", file=sys.stderr)
        return 2
    lines = diff_trees(Path(argv[0]), Path(argv[1]))
    if lines:
        print("\n".join(lines))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
