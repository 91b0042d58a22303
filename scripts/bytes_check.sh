#!/bin/sh
# Compare the outputs of scripts/bytes_recipe.sh at a git revision with those
# of this working tree, with no install step:
#
#   scripts/bytes_check.sh REV
#
# REV is exported with `git archive` into a temporary directory and this
# tree's recipe is copied over its own, so both sides run the same recipe.
# Prints `diff -r` of the two outputs, leaving out the timings (complexity)
# and the environment records (manifest.json).  If they differ, it then sizes
# the difference with scripts/bytes_moves.py (for each differing file: rows
# moved out of the total, the largest absolute move of any numeric field and
# the `method` values of the moved rows) and exits 1.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/rev"
git archive "$1" | tar -x -C "$TMP/rev"
cp scripts/bytes_recipe.sh "$TMP/rev/scripts/bytes_recipe.sh"
"$TMP/rev/scripts/bytes_recipe.sh" "$TMP/rev_out"
scripts/bytes_recipe.sh "$TMP/tree_out"
if diff -r -x complexity -x manifest.json "$TMP/rev_out" "$TMP/tree_out"; then
    echo "outputs identical to $1"
else
    echo "moves from $1 to this tree:"
    python3 scripts/bytes_moves.py "$TMP/rev_out" "$TMP/tree_out"
    exit 1
fi
