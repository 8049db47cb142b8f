"""Experiment runners: each table/figure reproduces the paper's shape."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments import common as xcommon
from repro.nn.transformer import GPTConfig
from repro.zero.config import PAPER_CONFIGS, C1, C4, C5, ZeROConfig


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


class TestFig1:
    def test_analytic_values(self):
        from repro.experiments import fig1

        rows = {r.label: r.analytic_gb for r in fig1.analytic_rows()}
        assert rows["baseline"] == pytest.approx(120.0)
        assert rows["Pos"] == pytest.approx(31.4, abs=0.05)
        assert rows["Pos+g"] == pytest.approx(16.6, abs=0.05)
        assert rows["Pos+g+p"] == pytest.approx(1.88, abs=0.01)

    def test_measured_tracks_formula(self):
        from repro.experiments import fig1

        for stage, expected in [(0, 16.0), (2, 5.5)]:
            measured = fig1.measured_bytes_per_param(stage)
            assert measured == pytest.approx(expected, rel=0.15)


class TestTable1:
    def test_fit_boundary_matches_paper_boldface(self):
        from repro.experiments import table1

        cells = {(c.model, c.nd, c.stage): c for c in table1.run()}
        # Paper bold: 7.5B fits Pos at Nd>=64, Pos+g at Nd>=16, Pos+g+p at Nd>=4.
        assert cells[("7.5B", 64, 1)].fits_32gb and not cells[("7.5B", 16, 1)].fits_32gb
        assert cells[("7.5B", 16, 2)].fits_32gb and not cells[("7.5B", 4, 2)].fits_32gb
        assert cells[("7.5B", 4, 3)].fits_32gb
        # 1T fits only Pos+g+p at Nd=1024.
        assert cells[("1T", 1024, 3)].fits_32gb
        assert not cells[("1T", 1024, 2)].fits_32gb
        rendered = table1.render(cells_list := table1.run())
        assert "Table 1" in rendered
        del cells_list


class TestTable2:
    def test_theory_matches_paper(self):
        from repro.experiments import table2

        rows = table2.run(measure=False)
        first = rows[0]
        assert first.theoretical_b["baseline"] == pytest.approx(2.0, abs=0.05)
        assert first.theoretical_b["Pos"] == pytest.approx(7.6, abs=0.1)
        assert first.theoretical_b["Pos+g+p"] == pytest.approx(128, rel=0.01)
        last = rows[-1]
        assert last.mp == 16
        assert last.theoretical_b["Pos+g+p"] == pytest.approx(2048, rel=0.01)

    def test_measured_tracks_paper_column(self):
        from repro.experiments.table2 import _measured_max_b

        # Paper row MP=1/64 GPUs: baseline 1.3B, Pos 6.2B measured.
        base = _measured_max_b(0, 1, 64)
        pos = _measured_max_b(1, 1, 64)
        assert 1.0 <= base <= 2.0
        assert 4.5 <= pos <= 7.5
        assert pos / base > 3  # the ZeRO-OS multiplier


class TestFig2:
    def test_shape(self):
        from repro.experiments import fig2

        rows = {r.label: r for r in fig2.run()}
        assert rows["100B"].speedup > 7
        assert rows["1.5B"].speedup < 2
        assert rows["100B"].zero_aggregate_pflops > 10
        # Baseline cannot even sustain 8 TFlops beyond 40B.
        for label in ("60B", "100B", "170B"):
            assert rows[label].baseline_tflops < 8


class TestFig3:
    def test_superlinear(self):
        from repro.experiments import fig3

        rows = fig3.run()
        assert rows[1].aggregate_pflops > 2 * rows[0].aggregate_pflops
        assert all(r.superlinear for r in rows[1:])
        # Our memory solver confirms the bigger batch fits at larger Nd.
        assert rows[-1].solver_max_batch >= rows[-1].batch


class TestFig4:
    def test_democratization(self):
        from repro.experiments import fig4

        rows = fig4.run()
        zero_rows = [r for r in rows if r.system == "zero"]
        assert all(r.fits_32gb for r in zero_rows)
        assert max(r.psi_b for r in zero_rows) > 12
        baseline_rows = [r for r in rows if r.system == "baseline"]
        assert all(r.psi_b < 1.5 for r in baseline_rows)


class TestFig5:
    def test_short_run_shapes(self):
        from repro.experiments import fig5

        curves = fig5.run(steps=10)
        ddp, zero_small, zero_large = curves
        assert ddp.val_perplexity == zero_small.val_perplexity  # ZeRO == DDP
        # Perplexity falls for every run over even a short training.
        for c in curves:
            assert c.val_perplexity[-1] < c.val_perplexity[0]
        assert "Figure 5" in fig5.render(curves)


class TestFig6:
    def test_config_ordering(self):
        from repro.experiments import fig6

        rows = {r.config: r.max_params_b for r in fig6.run()}
        # Paper's qualitative ordering: C1 < C2, C1 < C3 < C4 <= C5.
        assert rows["C1"] < rows["C2"]
        assert rows["C3"] < rows["C4"]
        assert rows["C4"] <= rows["C5"]
        assert rows["C4"] > 2 * rows["C1"]  # the 40B -> 140B style jump


class TestFig7:
    def test_cached_memory_shapes(self):
        from repro.experiments import fig7

        cells = {(c.model, c.config): c for c in fig7.run()}
        # Pa reduces cached memory (C1 -> C2).
        assert cells[("40B", "C2")].max_cached_gb < cells[("40B", "C1")].max_cached_gb
        # C4 -> C5 roughly flat for 40B...
        a, b = cells[("40B", "C4")], cells[("40B", "C5")]
        assert abs(a.max_cached_gb - b.max_cached_gb) < 1.0
        # ...but a real decrease for 100B (the paper's observation).
        c4, c5 = cells[("100B", "C4")], cells[("100B", "C5")]
        assert c4.fits and c5.fits
        assert c5.max_cached_gb < c4.max_cached_gb - 1.0


class TestFig8:
    def test_throughput_per_config(self):
        from repro.experiments import fig8

        rows = {(r.model, r.config): r for r in fig8.run()}
        # More memory headroom -> bigger batch -> more throughput (C1 -> C4).
        assert rows[("60B", "C4")].tflops_per_gpu > rows[("60B", "C1")].tflops_per_gpu
        # Pa+cpu not free: C5 <= C4 for 60B.
        assert rows[("60B", "C5")].tflops_per_gpu <= rows[("60B", "C4")].tflops_per_gpu
        # 170B runs only with the most aggressive configs.
        assert not rows[("170B", "C1")].runnable
        assert rows[("170B", "C5")].runnable


class TestSec7:
    def test_measured_volumes(self):
        from repro.experiments import sec7

        for row in sec7.run():
            assert row.measured_psi == pytest.approx(row.expected_psi, abs=1e-6)


class TestSec8:
    def test_pa_overhead_below_ten_percent(self):
        from repro.experiments import sec8

        results = {r.store: r for r in sec8.run()}
        assert results["none"].mp_volume_elems == results["none"].analytic_mp_elems
        pa = results["pa"]
        assert pa.activation_gather_elems == pa.analytic_pa_elems
        assert pa.pa_overhead_fraction < 0.10
        assert results["pa+cpu"].cpu_transfer_elems > 0


class TestRendering:
    @pytest.mark.parametrize(
        "module", ["fig2", "fig3", "fig4", "fig6", "fig8", "table1"]
    )
    def test_render_produces_table(self, module):
        import importlib

        mod = importlib.import_module(f"repro.experiments.{module}")
        text = mod.render(mod.run())
        assert len(text.splitlines()) > 3


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
