#!/usr/bin/env python3
"""Regenerate every study as CSV files under an output directory.

Runs the five experiments at their reference settings (heatmaps for all
three methods use the desk-scale surface for the SDR variant).  Use
--quick for a fast 3-seed pass.  Everything the run writes, including the
desk-scale scenario file, stays under --out.

    python scripts/reproduce_experiments.py --out results/ --seeds 20
"""

import argparse
import json
import sys
from pathlib import Path

from ris_isac import load_default_scenario
from ris_isac.cli import main as cli


def run(args):
    code = cli(args)
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results", help="output directory root")
    parser.add_argument("--seeds", type=int, default=20, help="Monte Carlo seeds")
    parser.add_argument("--quick", action="store_true", help="3 seeds instead of --seeds")
    args = parser.parse_args()

    out = Path(args.out)
    seeds = 3 if args.quick else args.seeds
    common = ["--seeds", str(seeds)]

    # desk-scale copy of the shipped scenario for the SDR-inclusive studies
    small = load_default_scenario().replace(ris_rows=4, ris_cols=4, alpha=0.5)
    out.mkdir(parents=True, exist_ok=True)
    small_file = out / "desk_scale.json"
    small_file.write_text(json.dumps(small.to_dict(), indent=2))

    for method in ("comm-only", "proposed"):
        run(["experiment", "heatmap", "--method", method,
             "--out", str(out / f"heatmap_{method.replace('-', '_')}"), *common])
    run(["experiment", "heatmap", "--method", "sdr", "--scenario", str(small_file),
         "--out", str(out / "heatmap_sdr_desk_scale"), *common])

    run(["experiment", "alpha-sweep",
         "--alphas", "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1",
         "--out", str(out / "alpha_sweep"), *common])

    run(["experiment", "weight-sweep", "--alpha", "0.5",
         "--out", str(out / "weight_sweep"), *common])

    run(["experiment", "aoa-scan", "--alpha", "0.5",
         "--out", str(out / "aoa_scan"), *common])

    run(["experiment", "complexity", "--out", str(out / "complexity")])

    print(f"all studies written under {out}/")


if __name__ == "__main__":
    main()
