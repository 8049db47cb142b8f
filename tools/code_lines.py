"""Count code lines under a directory (default ``src/repro``): lines that
carry a token other than a comment, blank or docstring. Prints one row per
package, then the total beside ``wc -l``.

    python tools/code_lines.py [root]
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
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/repro")
    code, wc = Counter(), Counter()
    for path in sorted(root.rglob("*.py")):
        package = path.relative_to(root).parts[0]
        code[package] += code_lines(path)
        wc[package] += len(path.read_text().splitlines())
    for package in sorted(code):
        print(f"{package:20s} {code[package]:6d} code {wc[package]:6d} wc -l")
    print(f"{'total':20s} {sum(code.values()):6d} code {sum(wc.values()):6d} wc -l")
