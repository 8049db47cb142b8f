"""Compare two sides of hostbench results against the bounds in BENCHMARK.json.

    python benchmarks/hostbench/compare.py A.json B.json
    python benchmarks/hostbench/compare.py --a A1.json A2.json ... --b B1.json B2.json ...

Each file is a ``result_*_trace0.json`` written by ``run.py --out``.
A is the parent, B the change. Every (end-to-end metric x workload) pair
gets one verdict, one row per workload and metric:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — within the bound, but a side's own run-to-run spread
  (distance between its quartiles over its median) is wider than the
  bound, so "unchanged" cannot be said;
* ``ok``         — within the bound and both sides steady.

With several files per side it also prints each side's quartiles and the
pairwise wins (A_i against B_i, in the order given), which is what the
alternating-pairs rule needs. Exits non-zero on any ``regressed`` pair or
when B's failed-operation share is larger than A's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from common import load_spec, quartile_spread  # noqa: E402


def _load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def _values(side: list[dict], workload: str, metric: str) -> list[float]:
    return [
        run["workloads"][workload]["metrics"][metric]
        for run in side if workload in run["workloads"]
    ]


def _failed_share(side: list[dict], workload: str) -> float:
    attempted = sum(r["workloads"][workload]["attempted"] for r in side if workload in r["workloads"])
    failed = sum(r["workloads"][workload]["failed"] for r in side if workload in r["workloads"])
    return failed / attempted if attempted else 0.0


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "-"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"[{q1:.4g}, {q3:.4g}]"


def worsening(a: float, b: float, better: str) -> float:
    """How much worse B is than A as a share of A (negative = better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    if worsening(statistics.median(a), statistics.median(b), better) > bound:
        return "regressed"
    if max(quartile_spread(a), quartile_spread(b)) > bound:
        return "unresolved"
    return "ok"


def wins(a: list[float], b: list[float], better: str) -> tuple[int, int, int]:
    """(B wins, A wins, ties) over the pairs (a_i, b_i)."""
    b_wins = a_wins = ties = 0
    for x, y in zip(a, b):
        w = worsening(x, y, better)
        if w < 0:
            b_wins += 1
        elif w > 0:
            a_wins += 1
        else:
            ties += 1
    return b_wins, a_wins, ties


def compare(side_a: list[dict], side_b: list[dict], spec: dict, out=sys.stdout) -> int:
    bad = 0
    many = len(side_a) > 1 or len(side_b) > 1
    for w in (w["name"] for w in spec["workloads"]):
        if not all(any(w in run["workloads"] for run in side) for side in (side_a, side_b)):
            continue
        print(f"== {w}", file=out)
        for m in spec["end_to_end"]:
            a = _values(side_a, w, m["name"])
            b = _values(side_b, w, m["name"])
            v = verdict(a, b, m["better"], m["bound"])
            bad += v == "regressed"
            med_a, med_b = statistics.median(a), statistics.median(b)
            row = (f"  {m['name']:20s} {v:10s} A {med_a:12.5g}  B {med_b:12.5g}  "
                   f"worse by {worsening(med_a, med_b, m['better']):+8.2%}  bound {m['bound']:.2%}")
            if many:
                bw, aw, t = wins(a, b, m["better"])
                row += (f"  A {_quartiles(a)} B {_quartiles(b)}  "
                        f"pairs: B wins {bw}, A wins {aw}, ties {t}")
            print(row, file=out)
        fa, fb = _failed_share(side_a, w), _failed_share(side_b, w)
        worse = fb > fa
        bad += worse
        print(f"  failed-operation share  A {fa:.4%}  B {fb:.4%}"
              + ("  ** larger on B **" if worse else ""), file=out)
    print("verdict:", "REGRESSED" if bad else "no regression", file=out)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="A.json B.json")
    parser.add_argument("--a", nargs="+", default=None, help="parent result files")
    parser.add_argument("--b", nargs="+", default=None, help="change result files")
    args = parser.parse_args(argv)
    if args.a and args.b and not args.files:
        a, b = args.a, args.b
    elif len(args.files) == 2 and not (args.a or args.b):
        a, b = [args.files[0]], [args.files[1]]
    else:
        parser.error("give either A.json B.json or --a files... --b files...")
    return compare(_load(a), _load(b), load_spec())


if __name__ == "__main__":
    sys.exit(main())
