"""Shared by the driver, the workload process and the comparison tool:
where the repository is, what BENCHMARK.json declares, and the two
statistics every number in the benchmark is built from."""

from __future__ import annotations

import json
import pathlib
import re
import statistics

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_spec() -> dict:
    """BENCHMARK.json as a dict (names, units, directions, bounds)."""
    return json.loads(BENCHMARK_JSON.read_text())


def median(values) -> float:
    return float(statistics.median(values))


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median — the driver's steadiness measure. 0.0 below two values."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return float((q3 - q1) / mid) if mid else 0.0
