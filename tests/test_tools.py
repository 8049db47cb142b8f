"""The two line tools in ``tools/``: ``golden_lines.py`` reports every
difference between two golden records, one-sided ones included, and
``code_lines.py`` counts one row per package, per file or per path."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name: str, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOLS / name), *map(str, args)],
        capture_output=True, text=True, timeout=60,
    )


def _record(path: Path, *digests: list[str]) -> None:
    path.write_text("".join(f"## digest {i}\n" + "\n".join(lines) + "\n"
                            for i, lines in enumerate(digests)))


# -- golden_lines.py ------------------------------------------------------------


def test_golden_lines_reports_one_sided_files_and_digests(tmp_path):
    before, after = tmp_path / "before", tmp_path / "after"
    before.mkdir(), after.mkdir()
    _record(before / "same.txt", ["+8,a;"])
    _record(after / "same.txt", ["+8,a;"])
    _record(before / "gone.txt", ["+8,a;"])
    _record(after / "new.txt", ["+8,a;"])
    _record(before / "grew.txt", ["+8,a;"])
    _record(after / "grew.txt", ["+8,a;"], ["+4,b;"])
    _record(before / "shrank.txt", ["+8,a;"], ["+4,b;"])
    _record(after / "shrank.txt", ["+8,a;"])
    _record(before / "moved.txt", ["+8,a;", "-8,a;"])
    _record(after / "moved.txt", ["+8,a;", "-16,a;"])
    out = _tool("golden_lines.py", before, after)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "gone.txt: only in before",
        "grew.txt digest 1: only in after",
        "moved.txt digest 0: 2 -> 2 lines, differing in 1..2; moved only: yes",
        "  free a: 8 -> 16 x1",
        "new.txt: only in after",
        "shrank.txt digest 1: only in before",
    ]


def test_golden_lines_help_and_usage(tmp_path):
    for flag in ("-h", "--help"):
        out = _tool("golden_lines.py", flag)
        assert out.returncode == 0
        assert out.stdout.startswith("Record what each golden test hashes")
    for args in ((), (tmp_path,), (tmp_path, tmp_path, tmp_path)):
        out = _tool("golden_lines.py", *args)
        assert out.returncode == 2
        assert out.stderr.strip() == "usage: python tools/golden_lines.py before_dir after_dir"
        assert "Traceback" not in out.stderr


# -- code_lines.py --------------------------------------------------------------


def _tree(root: Path) -> None:
    (root / "pkg").mkdir(parents=True)
    (root / "pkg" / "a.py").write_text('"""Doc."""\n\nx = 1\n# note\ny = 2\n')
    (root / "pkg" / "b.py").write_text("def f():\n    '''Doc.'''\n    return 3\n")
    (root / "top.py").write_text("z = 4\n\n")


def _rows(stdout: str) -> list[tuple[str, int, int]]:
    return [(row, int(code), int(wc))
            for row, code, _, wc, *_ in (line.split() for line in stdout.splitlines())]


def test_code_lines_one_root_counts_per_package(tmp_path):
    _tree(tmp_path)
    out = _tool("code_lines.py", tmp_path)
    assert out.returncode == 0, out.stderr
    assert _rows(out.stdout) == [("pkg", 4, 8), ("top.py", 1, 2), ("total", 5, 10)]
    assert out.stdout.splitlines()[0] == f"{'pkg':20s} {4:6d} code {8:6d} wc -l"


def test_code_lines_several_paths_count_one_row_each(tmp_path):
    _tree(tmp_path)
    pkg, top, a = tmp_path / "pkg", tmp_path / "top.py", tmp_path / "pkg" / "a.py"
    out = _tool("code_lines.py", pkg, top)
    assert out.returncode == 0, out.stderr
    assert _rows(out.stdout) == [(str(pkg), 4, 8), (str(top), 1, 2), ("total", 5, 10)]
    out = _tool("code_lines.py", a, top)
    assert _rows(out.stdout) == [(str(a), 2, 5), (str(top), 1, 2), ("total", 3, 7)]
    out = _tool("code_lines.py", pkg, tmp_path / "missing")
    assert out.returncode == 1
    assert "no such file or directory" in out.stderr
