import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bytes_moves", Path(__file__).parents[1] / "scripts" / "bytes_moves.py"
)
bytes_moves = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bytes_moves)


def write_tree(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


def test_sizes_each_differing_file(tmp_path, capsys):
    header = "method,seed,gain_db\n"
    old = write_tree(tmp_path / "old", {
        "scan/aoa_scan.csv": header + "proposed,1,-3.5\nsdr,1,-2.0\nproposed,2,-inf\n",
        "solve.txt": "gamma_db=23.38\nlambda=0\n",
        "same.txt": "x=1\n",
        "scan/manifest.json": "{}",
        "complexity/complexity.csv": "n,ms\n64,1.0\n",
        "gone.txt": "",
    })
    new = write_tree(tmp_path / "new", {
        "scan/aoa_scan.csv": header + "proposed,1,-3.5002\nsdr,1,-2.0\nproposed,2,-inf\n",
        "solve.txt": "gamma_db=23.37\nlambda=0.5\n",
        "same.txt": "x=1\n",
        "scan/manifest.json": '{"wall_time_s": 1}',
        "complexity/complexity.csv": "n,ms\n64,2.0\n",
    })
    bytes_moves.main(old, new)
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"gone.txt: only in {old}",
        "scan/aoa_scan.csv: 1 of 3 rows moved, largest numeric move 0.0002; methods: proposed",
        "solve.txt: 2 of 2 rows moved, largest numeric move 0.5",
    ]


def test_row_count_change_and_text_fields(tmp_path):
    a = write_tree(tmp_path / "a", {"t.csv": "method,x\nsdr,1\n", "u.txt": "k=abc\n"})
    b = write_tree(tmp_path / "b", {"t.csv": "method,x\nsdr,1\nsdr,2\n", "u.txt": "k=abd\n"})
    assert bytes_moves.sizes(a / "t.csv", b / "t.csv") == "1 rows -> 2 rows"
    assert bytes_moves.sizes(a / "u.txt", b / "u.txt") == (
        "1 of 1 rows moved, largest numeric move 0, and non-numeric fields changed"
    )
