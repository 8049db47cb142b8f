"""Experiment runners: each table/figure reproduces the paper's shape."""

import functools
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

from repro.experiments import TITLES, common as xcommon
from repro.nn.transformer import GPTConfig
from repro.zero.config import ZeROConfig


class TestCommon:
    def test_meta_memory_step_runs_and_reports(self):
        cfg = GPTConfig(n_layers=4, hidden=256, n_heads=4)
        res = xcommon.meta_memory_step(cfg, ZeROConfig(stage=2), n_gpus=64, mp=1, batch=4)
        assert res.fits
        assert res.peak_allocated_bytes > 0
        assert res.max_cached_bytes >= res.peak_allocated_bytes

    def test_oom_reported_not_raised(self):
        cfg = GPTConfig(n_layers=400, hidden=8192, n_heads=64)  # ~320B
        res = xcommon.meta_memory_step(cfg, ZeROConfig(stage=1), n_gpus=64, mp=1, batch=4)
        assert not res.fits
        assert res.oom_reason


MODULES = {name: importlib.import_module(f"repro.experiments.{name}") for name in TITLES}
BASELINES = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"


@functools.cache
def _data(name, artifact):
    """One run per source for the whole module: the figure tests below
    select from the same rows the parametrized test checks."""
    return MODULES[name].SOURCES[artifact]()


def _unmet(name, phrase=""):
    """Unmet claims of ``name`` on every source, among those whose text has ``phrase``."""
    module = MODULES[name]
    selected = [c for artifact in module.SOURCES for c in module.claims(_data(name, artifact))
                if phrase in c.claim]
    assert selected, f"{name} states no claim with {phrase!r}"
    return xcommon.unmet(selected)


@pytest.mark.parametrize("name", TITLES)
def test_every_source_renders_and_meets_its_claims(name):
    """Each runner's full run, and fig2's recorded-schedule source, meets
    every paper claim its module states (``claims``): the assertions the
    benchmark makes on the same data."""
    module = MODULES[name]
    for artifact in module.SOURCES:
        data = _data(name, artifact)
        assert len(module.render(data).splitlines()) > 3, artifact
        assert not xcommon.unmet(module.claims(data)), artifact


class TestFig1:
    def test_analytic_values(self):
        assert not _unmet("fig1", "model states")

    def test_measured_tracks_formula(self):
        assert not _unmet("fig1", "measured")


class TestTable1:
    def test_fit_boundary_matches_paper_boldface(self):
        assert not _unmet("table1")
        assert "Table 1" in MODULES["table1"].render(_data("table1", "test_table1_memory_vs_dp"))


class TestTable2:
    def test_theory_matches_paper(self):
        assert not _unmet("table2", "theory")

    def test_measured_tracks_paper_column(self):
        assert not _unmet("table2", "measured")


class TestFig2:
    def test_shape(self):
        assert not _unmet("fig2")


class TestFig3:
    def test_superlinear(self):
        assert not _unmet("fig3")


class TestFig4:
    def test_democratization(self):
        assert not _unmet("fig4")


class TestFig6:
    def test_config_ordering(self):
        assert not _unmet("fig6")


class TestFig8:
    def test_throughput_per_config(self):
        assert not _unmet("fig8")


class TestRendering:
    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig6", "fig8", "table1"])
    def test_render_produces_table(self, name):
        module = MODULES[name]
        for artifact in module.SOURCES:
            assert len(module.render(_data(name, artifact)).splitlines()) > 3, artifact


def test_every_paper_baseline_has_exactly_one_source():
    """Each committed paper baseline is written by one entry and source."""
    patterns = ("BENCH_test_fig*.json", "BENCH_test_sec*.json", "BENCH_test_table*.json",
                "BENCH_test_offload_democratization.json", "BENCH_infinity_trillion.json")
    committed = sorted(p.name for pattern in patterns for p in BASELINES.glob(pattern))
    written = sorted(f"BENCH_{artifact}.json" for m in MODULES.values() for artifact in m.SOURCES)
    assert written == committed


class TestCommandLine:
    """``python -m repro.experiments <id>...`` prints ``render(run())``."""

    @staticmethod
    def _run(*ids):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
        return subprocess.run(
            [sys.executable, "-m", "repro.experiments", *ids], capture_output=True,
            text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )

    def test_an_id_prints_its_table(self):
        from repro.experiments import table1

        proc = self._run("table1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == table1.render(table1.run()) + "\n"

    @pytest.mark.parametrize("ids", [(), ("table1", "fig99")])
    def test_no_id_or_an_unknown_one_exits_2_with_the_ids(self, ids):
        proc = self._run(*ids)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "table1" in proc.stderr and "infinity_sweep" in proc.stderr
