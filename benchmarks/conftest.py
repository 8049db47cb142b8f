"""Benchmark harness helpers.

Every benchmark regenerates a table (``bench_paper.py`` one per paper
table/figure and source): it times the runner with pytest-benchmark,
prints the reproduced rows, and writes them to
``benchmarks/output/<name>.txt`` so the artifacts survive pytest's output
capture. ``record_table(text, metrics=...)`` additionally
writes machine-readable ``benchmarks/output/BENCH_<name>.json`` rows
(metric name, value, unit, config) for dashboards and regression diffing.

The rows feed the perf-regression gate: after writing, ``record_table``
runs ``compare_bench.check_file`` against the committed baselines in
``benchmarks/baselines/``, so a benchmark whose deterministic metrics
drift fails on the spot. Intentional changes are re-baselined with
``python benchmarks/compare_bench.py --update``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture
def record_table(request):
    """record_table(text, metrics=None, config=None) -> prints and persists
    the reproduced table.

    ``metrics`` is an optional mapping ``{name: value}`` or
    ``{name: (value, unit)}``; when given (even empty), the fixture also
    writes ``BENCH_<name>.json`` with one row per metric, each carrying
    the benchmark name and the (JSON-serializable) ``config`` dict.
    ``name`` overrides the artifact basename (default: the test node's
    name) for benchmarks whose artifact name is part of their contract.
    """

    def _record(text: str, metrics=None, config=None, name=None) -> None:
        OUTPUT_DIR.mkdir(exist_ok=True)
        name = (name or request.node.name).replace("/", "_")
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
        if metrics is not None:
            rows = []
            for metric, value in metrics.items():
                unit = ""
                if isinstance(value, tuple):
                    value, unit = value
                rows.append({
                    "benchmark": name,
                    "metric": metric,
                    "value": value,
                    "unit": unit,
                    "config": dict(config or {}),
                })
            bench_path = OUTPUT_DIR / f"BENCH_{name}.json"
            bench_path.write_text(json.dumps(rows, indent=2) + "\n")
            from compare_bench import check_file

            ok, table = check_file(bench_path)
            if not ok:
                pytest.fail(
                    f"benchmark metrics regressed vs benchmarks/baselines/\n"
                    f"{table}\n"
                    "(intentional? re-seed with "
                    "`python benchmarks/compare_bench.py --update`)",
                    pytrace=False,
                )
        print(f"\n{text}\n")

    return _record


@pytest.fixture(scope="session", autouse=True)
def baseline_gate_smoke():
    """The redundancy and Mission Control overhead benchmarks' perf-regression
    gates must stay armed: each committed baseline has to exist and pass
    ``compare_bench --check`` against itself, even in sessions that deselect
    the benchmark."""
    from compare_bench import BASELINE_DIR, check_file

    for name in ("BENCH_redundancy_recovery.json", "BENCH_obs_overhead.json"):
        baseline = BASELINE_DIR / name
        assert baseline.exists(), (
            f"missing benchmarks/baselines/{name} — "
            "seed it with `python benchmarks/compare_bench.py --update`"
        )
        ok, table = check_file(baseline)
        assert ok, table
