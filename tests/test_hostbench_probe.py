"""Tier-1 guards for the hostbench benchmark.

``benchmarks/hostbench/probe.py`` wraps a table of public boundaries by
name from outside the package. A refactor that renames, aliases or merges
one of them (two boundaries resolving to one function object, or a name
that no longer resolves) only fails in the benchmark pipeline's traced
run; the first test makes it fail in ``pytest``. The second runs every
workload's untraced child once, the way ``run.py`` launches it, so "the
benchmark cannot run on this change" is a test failure here and not a
``run_failed`` in the pipeline. Both read the benchmark files and edit
none of them.
"""

import importlib
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
HOSTBENCH = ROOT / "benchmarks" / "hostbench"
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def hostbench_module(name):
    """Import ``benchmarks/hostbench/<name>.py`` (a directory of scripts,
    not a package) without leaving the directory on ``sys.path``."""
    sys.path.insert(0, str(HOSTBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path[:] = [p for p in sys.path if p != str(HOSTBENCH)]


def test_every_probed_boundary_resolves_and_wraps_once():
    probe = hostbench_module("probe")
    sites = probe.assert_unpatched()
    assert sites > 0
    recorder = probe.Recorder()
    try:
        recorder.install()  # raises "already wrapped" on aliased boundaries
        assert len(recorder.names) > 0
    finally:
        recorder.uninstall()
    assert probe.assert_unpatched() == sites


@pytest.mark.hostbench
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_untraced_child_meets_the_contract(workload):
    """Untraced only: its checks are deterministic (the traced run's CPU
    accounting is timing-based). ``_run_child`` raises unless the child
    exits 0; ``result_line`` raises unless it reports exactly the
    contract's metrics."""
    run = hostbench_module("run")
    try:
        data = run._run_child(workload, seed=1, seconds=0.3, trace=0)
    except run.ChildFailed:
        # One relaunch, for a rare failure of the harness itself: about 1
        # chaos child in 100 (3 of ~350 while this test was written, the
        # parent commit included) dies in ``ChaosRun.setup`` with a
        # ``BrokenBarrierError`` from the harness's own per-attempt
        # ``threading.Barrier`` — probably a stale entry of its
        # ``id(fabric)``-keyed gate table (cause not confirmed; the
        # benchmark files are not this test's to edit). A change that
        # breaks the benchmark fails both launches.
        data = run._run_child(workload, seed=1, seconds=0.3, trace=0)
    line = run.result_line(CONTRACT, data, 0)
    assert line["correct"] is True, data["problems"]
    assert line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert len(line["metrics"]) == 9
