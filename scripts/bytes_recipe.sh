#!/bin/sh
# Write every output the bytes check compares into OUT, from the checkout
# that holds this script, with no install step:
#
#   scripts/bytes_recipe.sh OUT
#
# Run it on two checkouts (say, a parent commit and a change), then compare
# with `diff -r -x complexity -x manifest.json OUT1 OUT2`.  It writes the
# quick reproduction tree, the AoA scan at the scenario's alpha = 1 (the
# lambda = 0 pseudo-inverse path, where rounding shows first) on the shipped
# scenario and on its 4x4 copy, and four `solve` summaries.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 2
fi
mkdir -p "$1"
OUT=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."
export PYTHONPATH=src

ris_isac() {
    python -m ris_isac.cli "$@"
}

python scripts/reproduce_experiments.py --quick --out "$OUT"
ris_isac experiment aoa-scan --seeds 3 --out "$OUT/aoa_scan_alpha1"
ris_isac experiment aoa-scan --seeds 3 --alpha 1 --scenario "$OUT/desk_scale.json" \
    --out "$OUT/aoa_scan_alpha1_desk_scale"
ris_isac solve > "$OUT/solve_default.txt"
ris_isac solve --alpha 0.5 --lambda-policy fixed:0.1 > "$OUT/solve_alpha05_fixed01.txt"
ris_isac solve --alpha 0 > "$OUT/solve_alpha0.txt"
ris_isac solve --scenario "$OUT/desk_scale.json" --alpha 1 --seed 7 \
    > "$OUT/solve_desk_scale_seed7.txt"
