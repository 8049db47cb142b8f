"""Count code lines: lines that carry a token other than a comment, blank
or docstring. Given one directory (default ``src/repro``) prints one row per
package; given several paths, one row per path (a directory's ``.py`` files
summed). Then the total beside ``wc -l``.

    python tools/code_lines.py [root | path ...]

A path that does not exist exits 1 with a one-line message; ``-h`` /
``--help`` prints this text.
"""

import ast
import sys
import tokenize
from collections import Counter
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    with tokenize.open(path) as f:
        source = f.read()
    lines = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(True)).__next__):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    if {"-h", "--help"} & set(sys.argv[1:]):
        print(__doc__)
        sys.exit(0)
    args = [Path(a) for a in sys.argv[1:]] or [Path("src/repro")]
    missing = [str(path) for path in args if not path.exists()]
    if missing:
        sys.exit(f"code_lines.py: no such file or directory: {', '.join(missing)}")
    code, wc = Counter(), Counter()
    if len(args) == 1 and args[0].is_dir():
        root = args[0]
        rows = [(path.relative_to(root).parts[0], path) for path in sorted(root.rglob("*.py"))]
    else:
        rows = [
            (str(arg), path) for arg in args
            for path in (sorted(arg.rglob("*.py")) if arg.is_dir() else [arg])
        ]
    for row, path in rows:
        code[row] += code_lines(path)
        wc[row] += len(path.read_text().splitlines())
    width = max(20, *map(len, code))
    for row in code:
        print(f"{row:{width}s} {code[row]:6d} code {wc[row]:6d} wc -l")
    print(f"{'total':{width}s} {sum(code.values()):6d} code {sum(wc.values()):6d} wc -l")
