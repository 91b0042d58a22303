"""Size the differences between two output trees of scripts/bytes_recipe.sh:

    python scripts/bytes_moves.py OLD NEW

For each file that differs (timings and manifests left out, as in
scripts/bytes_check.sh), print the rows that moved out of the total, the
largest absolute move of any numeric field, and the distinct `method` values
of the moved rows.  A CSV row is a record under its header; in any other file
a row is a line, and its fields are the values of its `key=value` tokens.
A file present on one side only is reported as such.
"""

import csv
import math
import sys
from pathlib import Path

SKIPPED = {"complexity", "manifest.json"}


def rows(path: Path) -> list[dict]:
    """The records of a file: CSV rows by header, else key=value tokens per line."""
    text = path.read_text()
    if path.suffix == ".csv":
        return list(csv.DictReader(text.splitlines()))
    return [
        dict(t.split("=", 1) if "=" in t else (str(i), t) for i, t in enumerate(line.split()))
        for line in text.splitlines()
    ]


def move(old: str, new: str) -> float:
    """The absolute move of a numeric field, 0 for equal text, nan for non-numeric text."""
    if old == new:
        return 0.0
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return math.nan
    return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf


def sizes(old: Path, new: Path) -> str:
    """One line sizing the difference between two versions of a file."""
    before, after = rows(old), rows(new)
    if len(before) != len(after):
        return f"{len(before)} rows -> {len(after)} rows"
    moved = [(r, s) for r, s in zip(before, after) if r != s]
    moves = [move(r.get(k), s.get(k)) for r, s in moved for k in r.keys() | s.keys()]
    largest = max((m for m in moves if not math.isnan(m)), default=0.0)
    text = f"{len(moved)} of {len(before)} rows moved, largest numeric move {largest:.3g}"
    if any(math.isnan(m) for m in moves):
        text += ", and non-numeric fields changed"
    methods = sorted({s.get("method") for _, s in moved} - {None})
    return text + (f"; methods: {', '.join(methods)}" if methods else "")


def files(root: Path) -> set[Path]:
    """The compared files under root, relative to it."""
    return {
        p.relative_to(root) for p in root.rglob("*")
        if p.is_file() and not SKIPPED & set(p.relative_to(root).parts)
    }


def main(old_root: Path, new_root: Path) -> None:
    old_files, new_files = files(old_root), files(new_root)
    for rel in sorted(old_files | new_files):
        if rel not in old_files or rel not in new_files:
            print(f"{rel}: only in {old_root if rel in old_files else new_root}")
        elif (old_root / rel).read_bytes() != (new_root / rel).read_bytes():
            print(f"{rel}: {sizes(old_root / rel, new_root / rel)}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python scripts/bytes_moves.py OLD NEW")
    main(Path(sys.argv[1]), Path(sys.argv[2]))
