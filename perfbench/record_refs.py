"""Record the reference output of every op in every workload's pool.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/record_refs.py [workload ...]

Writes ``perfbench/refs/<workload>.json.xz``.  BLAS is pinned to one thread,
as in the benchmark.
"""

import contextlib
import io
import json
import lzma
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import BLAS_THREAD_VARS, REFS_DIR, WORKLOADS

os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ris_isac import cli  # noqa: E402  (after the BLAS pin and the path)


def record(workload, work_dir: Path) -> dict:
    scenario = work_dir / f"{workload.name}.json"
    scenario.write_text(json.dumps(workload.scenario(), indent=2))
    out_dir = work_dir / "out"
    outputs = {}
    for seed in workload.pool():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(workload.argv(str(scenario), seed, str(out_dir)))
        if code != 0:
            raise SystemExit(f"{workload.name} seed {seed}: exit code {code}")
        outputs[str(seed)] = workload.read_output(stdout.getvalue(), out_dir)
    return outputs


def main() -> int:
    names = sys.argv[1:] or sorted(WORKLOADS)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    REFS_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        for name in names:
            outputs = record(WORKLOADS[name], Path(tmp))
            doc = {"workload": name, "commit": commit, "outputs": outputs}
            data = json.dumps(doc, separators=(",", ":")).encode()
            (REFS_DIR / f"{name}.json.xz").write_bytes(
                lzma.compress(data, preset=9 | lzma.PRESET_EXTREME)
            )
            print(f"{name}: {len(outputs)} ops recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
