"""Record what each golden test hashes, line by line, and diff two records.

A golden test pins a sha256 digest; when a change must move one, the
digest says nothing about *what* moved. As a pytest plugin this module
wraps ``hashlib.sha256`` so every test writes the material it fed to each
digest into ``$GOLDEN_LINES_DIR/<test id>.txt`` — one ``## digest N``
section per hasher, one line per event (``"\\n"``-joined text split on
newlines, a ``;``-terminated stream split per event, JSON pretty-printed):

    GOLDEN_LINES_DIR=/tmp/before PYTHONPATH=src:tools \\
        python -m pytest -p golden_lines tests/test_zero_comm.py

Run it in a copy of the parent commit and in the change, then compare:

    python tools/golden_lines.py /tmp/before /tmp/after

which prints, per digest that differs, the span of differing lines,
whether the lines only moved (same multiset), the free events (``-size,tag;``)
whose size alone changed, and what else was added or removed. A test file
or a digest present on one side only is reported as "only in before" or
"only in after". ``-h`` / ``--help`` prints this text; any other argument
count exits 2 with the usage line.
"""

from __future__ import annotations

import collections
import difflib
import hashlib
import json
import os
import re
import sys

_FREE = re.compile(r"^-(\d+),(.*);$")


def _lines(data) -> list[str]:
    text = bytes(data).decode("utf-8", "replace") if not isinstance(data, str) else data
    if text[:1] in "[{":
        try:
            return json.dumps(json.loads(text), indent=1, sort_keys=True).splitlines()
        except ValueError:
            pass
    lines = text.split("\n")
    if len(lines) == 1 and text.count(";") > 1:
        lines = [e + ";" for e in text.split(";") if e]
    return lines


_sections: list[list[str]] = []


class _Recording:
    """``hashlib.sha256`` that also keeps what it was fed."""

    _real = hashlib.sha256

    def __init__(self, data=b"", **kwargs):
        self._h = self._real(**kwargs)
        self._lines: list[str] = []
        _sections.append(self._lines)
        if data:
            self.update(data)

    def update(self, data) -> None:
        self._h.update(data)
        self._lines.extend(_lines(data))

    def hexdigest(self) -> str:
        return self._h.hexdigest()

    def digest(self) -> bytes:
        return self._h.digest()


def pytest_configure(config) -> None:
    hashlib.sha256 = _Recording


def pytest_unconfigure(config) -> None:
    hashlib.sha256 = _Recording._real


def pytest_runtest_setup(item) -> None:
    _sections.clear()


def pytest_runtest_teardown(item) -> None:
    name = re.sub(r"[^A-Za-z0-9_.-]+", "_", item.nodeid)
    with open(os.path.join(os.environ["GOLDEN_LINES_DIR"], name + ".txt"), "w") as f:
        for i, lines in enumerate(_sections):
            f.write(f"## digest {i}\n" + "\n".join(lines) + "\n")


def _read(path: str) -> list[list[str]]:
    out: list[list[str]] = []
    for line in open(path).read().splitlines():
        if line.startswith("## digest "):
            out.append([])
        else:
            out[-1].append(line)
    return out


def compare(before: list[str], after: list[str]) -> str:
    """One digest's verdict: moved lines, free-size changes, the rest."""
    ops = [o for o in difflib.SequenceMatcher(None, before, after, autojunk=False).get_opcodes()
           if o[0] != "equal"]
    resized, net = collections.Counter(), collections.Counter()
    for op, i1, i2, j1, j2 in ops:
        pairs = list(zip(before[i1:i2], after[j1:j2]))
        if op == "replace" and i2 - i1 == j2 - j1 and all(
            _FREE.match(p) and _FREE.match(q) and _FREE.match(p)[2] == _FREE.match(q)[2]
            for p, q in pairs
        ):
            resized.update((_FREE.match(p)[2], _FREE.match(p)[1], _FREE.match(q)[1]) for p, q in pairs)
            continue
        net.subtract(before[i1:i2])
        net.update(after[j1:j2])
    rest = {line: n for line, n in net.items() if n}
    out = [f"{len(before)} -> {len(after)} lines, differing in {ops[0][1]}..{ops[-1][2]}; "
           f"moved only: {'no' if rest else 'yes'}"]
    out += [f"  free {tag}: {a} -> {b} x{n}" for (tag, a, b), n in sorted(resized.items())]
    out += [f"  {n:+d} {line[:120]}" for line, n in list(rest.items())[:12]]
    if len(rest) > 12:
        out.append(f"  ... {len(rest)} distinct lines added or removed")
    return "\n".join(out)


USAGE = "usage: python tools/golden_lines.py before_dir after_dir"


def report(before_dir: str, after_dir: str) -> list[str]:
    """One line (or verdict) per test file or digest that differs between
    the two record directories, including those present on one side only."""
    out = []
    before_names, after_names = set(os.listdir(before_dir)), set(os.listdir(after_dir))
    for name in sorted(before_names | after_names):
        if name not in after_names:
            out.append(f"{name}: only in before")
            continue
        if name not in before_names:
            out.append(f"{name}: only in after")
            continue
        before, after = _read(os.path.join(before_dir, name)), _read(os.path.join(after_dir, name))
        for i in range(max(len(before), len(after))):
            if i >= len(after):
                out.append(f"{name} digest {i}: only in before")
            elif i >= len(before):
                out.append(f"{name} digest {i}: only in after")
            elif before[i] != after[i]:
                out.append(f"{name} digest {i}: {compare(before[i], after[i])}")
    return out


if __name__ == "__main__":
    if {"-h", "--help"} & set(sys.argv[1:]):
        print(__doc__)
        sys.exit(0)
    if len(sys.argv) != 3:
        print(USAGE, file=sys.stderr)
        sys.exit(2)
    for line in report(*sys.argv[1:3]):
        print(line)
