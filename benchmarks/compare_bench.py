"""Perf-regression gate: diff BENCH_*.json artifacts against baselines.

Every benchmark writes machine-readable rows (``benchmarks/output/
BENCH_<name>.json``, one row per metric); this module diffs them against
the committed baselines in ``benchmarks/baselines/`` with per-metric
tolerances and renders the verdict as a table. It runs three ways:

- standalone CLI::

      python benchmarks/compare_bench.py BENCH_fig2_throughput.json
      python benchmarks/compare_bench.py --check          # gate everything

  exit code 0 = within tolerance, 1 = drift (or a baselined metric
  disappeared). ``--update`` re-seeds the baselines from current output.

- from the benchmark harness: ``benchmarks/conftest.py`` gates every
  ``record_table(..., metrics=...)`` call, so a drifting metric fails the
  benchmark that produced it at the moment it regresses.

- from tests, via ``compare_rows`` / ``check_file``.

Tolerance policy: reproduced paper numbers are deterministic (simulated
clocks, fixed seeds), so the default tolerance is tight; metrics measured
in host wall-clock time (named in ``WALL_CLOCK_METRICS``) vary run to run
and are reported but never gated.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.utils.tables import format_table  # noqa: E402

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"
BASELINE_DIR = pathlib.Path(__file__).parent / "baselines"

#: default relative tolerance for deterministic (simulated/closed-form)
#: metrics: tight enough to catch any real change, loose enough to forgive
#: float-summation noise from refactors.
DEFAULT_REL_TOL = 1e-6
#: absolute floor used when the baseline value is ~0.
ABS_TOL = 1e-12

#: per-metric relative-tolerance overrides. The two call-overhead ratios
#: count Python calls in rank threads (machine-stable, unlike wall time);
#: five runs each read a relative range of 0 (audit) and 0.4% (detector,
#: whose threaded count moves with scheduling), so each gets 2%.
REL_TOL = {
    "audit_call_overhead": 0.02,
    "detector_call_overhead": 0.02,
}

#: metrics measured in host wall-clock time (pytest-benchmark style):
#: machine- and load-dependent, so the gate reports them but never fails
#: on them.
WALL_CLOCK_METRICS = {
    "step_wall_time_mean",
    "meta_step_wall_time_mean",
    "step_time_audit_off",
    "step_time_audit_on",
    "audit_overhead",
    # the fail-slow benchmark's detector runs in real time, so eviction
    # timing (and everything downstream of it) varies run to run
    "detector_overhead",
    "throughput_before",
    "throughput_during",
    "throughput_after",
    "recovered",
    "evict_resume_step",
    "evict_steps_reexecuted",
    # host wall-clock recovery times (redundancy benchmark)
    "recovery_wall_fast",
    "recovery_wall_ring",
    # the flight recorder's self-profiled cost is host CPU over modeled
    # seconds — reported (and asserted <= 5% in-bench) but never gated
    "recording_overhead",
    "record_cpu_us_per_event",
}


def load_rows(path) -> list[dict]:
    return json.loads(pathlib.Path(path).read_text())


def _tolerance(metric: str) -> float | None:
    """Relative tolerance for ``metric`` (None = wall-clock, not gated)."""
    if metric in WALL_CLOCK_METRICS:
        return None
    return REL_TOL.get(metric, DEFAULT_REL_TOL)


def compare_rows(current: list[dict], baseline: list[dict]) -> list[dict]:
    """Diff two row lists metric by metric.

    Returns one dict per metric with keys ``metric``, ``baseline``,
    ``current``, ``rel_delta``, ``tolerance``, ``status`` where status is
    ``ok`` | ``drift`` | ``wall-clock`` (reported, not gated) | ``new``
    (no baseline yet) | ``missing`` (baselined metric disappeared —
    gated).
    """
    cur = {row["metric"]: row for row in current}
    base = {row["metric"]: row for row in baseline}
    out = []
    for metric in list(base) + [m for m in cur if m not in base]:
        b = base.get(metric)
        c = cur.get(metric)
        tol = _tolerance(metric)
        entry = {
            "metric": metric,
            "baseline": None if b is None else b["value"],
            "current": None if c is None else c["value"],
            "rel_delta": None,
            "tolerance": tol,
        }
        if c is None:
            entry["status"] = "wall-clock" if tol is None else "missing"
        elif b is None:
            entry["status"] = "new"
        else:
            bv, cv = float(b["value"]), float(c["value"])
            rel = abs(cv - bv) / max(abs(bv), ABS_TOL)
            entry["rel_delta"] = rel
            if tol is None:
                entry["status"] = "wall-clock"
            else:
                entry["status"] = "ok" if rel <= tol else "drift"
        out.append(entry)
    return out


def format_diff(name: str, diffs: list[dict]) -> str:
    headers = ["metric", "baseline", "current", "rel delta", "tolerance", "status"]
    rows = []
    for d in diffs:
        rows.append([
            d["metric"],
            "-" if d["baseline"] is None else f"{d['baseline']:.6g}",
            "-" if d["current"] is None else f"{d['current']:.6g}",
            "-" if d["rel_delta"] is None else f"{d['rel_delta']:.2e}",
            "not gated" if d["tolerance"] is None else f"{d['tolerance']:.0e}",
            d["status"],
        ])
    return format_table(headers, rows, title=f"bench diff: {name}")


def gated_failures(diffs: list[dict]) -> list[dict]:
    return [d for d in diffs if d["status"] in ("drift", "missing")]


def check_file(path, *, baseline_dir=BASELINE_DIR) -> tuple[bool, str]:
    """Gate one BENCH_*.json against its baseline.

    Returns ``(ok, rendered diff table)``; a benchmark with no baseline
    yet passes with a note (seed it with ``--update``).
    """
    path = pathlib.Path(path)
    baseline_path = pathlib.Path(baseline_dir) / path.name
    if not baseline_path.exists():
        return True, f"bench diff: {path.name}: no baseline (not gated)"
    diffs = compare_rows(load_rows(path), load_rows(baseline_path))
    table = format_diff(path.name, diffs)
    return not gated_failures(diffs), table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff benchmark BENCH_*.json artifacts against baselines."
    )
    parser.add_argument(
        "files", nargs="*",
        help="BENCH_*.json files (or bare names) to diff; default: every "
             "artifact in the output dir",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 on drift (default prints the diff and exits 0 unless "
             "files were given explicitly)",
    )
    parser.add_argument("--baseline-dir", default=BASELINE_DIR, type=pathlib.Path)
    parser.add_argument("--output-dir", default=OUTPUT_DIR, type=pathlib.Path)
    parser.add_argument(
        "--update", action="store_true",
        help="copy the selected current artifacts over the baselines",
    )
    args = parser.parse_args(argv)

    if args.files:
        paths = []
        for f in args.files:
            p = pathlib.Path(f)
            if not p.exists():
                p = args.output_dir / f
            if not p.exists():
                print(f"no such artifact: {f}", file=sys.stderr)
                return 2
            paths.append(p)
    else:
        paths = sorted(args.output_dir.glob("BENCH_*.json"))
        if not paths:
            print(f"no BENCH_*.json artifacts under {args.output_dir}", file=sys.stderr)
            return 2

    if args.update:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        for p in paths:
            (args.baseline_dir / p.name).write_text(p.read_text())
            print(f"baselined {p.name}")
        return 0

    failed = False
    for p in paths:
        ok, table = check_file(p, baseline_dir=args.baseline_dir)
        print(table)
        if not ok:
            failed = True
    if failed:
        print("REGRESSION: benchmark metrics drifted beyond tolerance")
        return 1
    print("all gated benchmark metrics within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
