#!/bin/sh
# Write every output the bytes check compares into OUT, from the checkout
# that holds this script, with no install step:
#
#   scripts/bytes_recipe.sh OUT
#
# Run it on two checkouts (say, a parent commit and a change), then compare
# with `diff -r -x complexity -x manifest.json OUT1 OUT2`.  It writes the
# 3-seed reproduction tree, the AoA scan at the scenario's alpha = 1 (the
# lambda = 0 pseudo-inverse path, where rounding shows first) on the shipped
# scenario and on its 4x4 copy, six `solve` summaries (one on a 64x64 copy,
# N = 4 096, where the factor shapes differ most from N x N, and one on a copy
# whose second target is given by its position, not its angle), a 2-seed alpha
# sweep over 11 alphas on that 64x64 copy (a 33-cell batch at N = 4 096), and
# the 20-seed alpha sweep over 11 alphas (the shape of one perfbench
# alpha-sweep op) and the 20-seed weight sweep, both on the shipped scenario,
# and a 2-seed AoA scan at alpha = 0.5 on a 6x6 copy (the shape of one
# perfbench sdr-band op: the proposed design and SDR at N = 36 with 11 band
# targets), so the SDR rows are compared byte for byte.
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

python scripts/reproduce_experiments.py --seeds 3 --out "$OUT"
ris_isac experiment aoa-scan --seeds 3 --out "$OUT/aoa_scan_alpha1"
ris_isac experiment aoa-scan --seeds 3 --alpha 1 --scenario "$OUT/desk_scale.json" \
    --out "$OUT/aoa_scan_alpha1_desk_scale"
ris_isac solve > "$OUT/solve_default.txt"
ris_isac solve --alpha 0.5 --lambda-policy fixed:0.1 > "$OUT/solve_alpha05_fixed01.txt"
ris_isac solve --alpha 0 > "$OUT/solve_alpha0.txt"
ris_isac solve --scenario "$OUT/desk_scale.json" --alpha 1 --seed 7 \
    > "$OUT/solve_desk_scale_seed7.txt"
python -c 'import json; from ris_isac import load_default_scenario
print(json.dumps(load_default_scenario().replace(ris_rows=64, ris_cols=64).to_dict(), indent=2))' \
    > "$OUT/large_surface.json"
python -c 'import json; from ris_isac import load_default_scenario
print(json.dumps(load_default_scenario().replace(ris_rows=6, ris_cols=6).to_dict(), indent=2))' \
    > "$OUT/six_by_six.json"
ris_isac solve --scenario "$OUT/large_surface.json" > "$OUT/solve_large_surface.txt"
python -c 'import json; from ris_isac.config import default_scenario_path
d = json.loads(default_scenario_path().read_text())
d["targets"][1] = {"weight": 0.5, "position": [45.0, 70.0]}
print(json.dumps(d, indent=2))' > "$OUT/position_target.json"
ris_isac solve --scenario "$OUT/position_target.json" > "$OUT/solve_position_target.txt"
ris_isac experiment alpha-sweep --seeds 2 --alphas 0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1 \
    --scenario "$OUT/large_surface.json" --out "$OUT/alpha_sweep_large_surface"
ris_isac experiment alpha-sweep --seeds 20 --alphas 0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1 \
    --out "$OUT/alpha_sweep_20seeds"
ris_isac experiment weight-sweep --seeds 20 --out "$OUT/weight_sweep_20seeds"
ris_isac experiment aoa-scan --seeds 2 --alpha 0.5 --scenario "$OUT/six_by_six.json" \
    --out "$OUT/aoa_scan_six_by_six"
