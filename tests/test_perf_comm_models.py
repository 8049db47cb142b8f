"""Performance and communication models vs the paper's qualitative anchors."""

import pytest

from repro.analysis.comm_model import MPCommModel, dp_volume_elements
from repro.analysis.perf_model import (
    PerfModel,
    gemm_efficiency,
    transformer_flops_per_replica,
)
from repro.configs import TABLE5_FIGURE2, TABLE6_FIGURE3
from repro.experiments.fig2 import zero_config
from repro.nn.transformer import GPTConfig
from repro.zero.config import C3, C4, C5, ZeROConfig
from repro.zero.placement import Mesh


class TestCommModel:
    def test_dp_volumes(self):
        assert dp_volume_elements(10, 0) == 20
        assert dp_volume_elements(10, 1) == 20
        assert dp_volume_elements(10, 2) == 20
        assert dp_volume_elements(10, 3) == 30  # the 1.5x of Section 7.2.2
        with pytest.raises(ValueError):
            dp_volume_elements(10, 4)

    def test_megatron_block_volume_formula(self):
        """Section 8: 12 x seq x hidden per block (with batch factored in)."""
        m = MPCommModel(batch=1, seq_len=1024, hidden=4096)
        assert m.baseline_elements_per_block() == 12 * 1024 * 4096

    def test_pa_overhead_under_ten_percent(self):
        m = MPCommModel(batch=4, seq_len=1024, hidden=8192)
        assert m.pa_overhead_fraction() == pytest.approx(1 / 12)
        assert m.pa_overhead_fraction() < 0.10

    def test_pa_cpu_is_twice_the_shard(self):
        m = MPCommModel(batch=2, seq_len=128, hidden=256)
        assert m.pcie_elements_per_block(C5.placement, Mesh(mp=16)) == pytest.approx(
            2 * 2 * 128 * 256 / 16
        )
        assert m.pcie_elements_per_block(C4.placement, Mesh(mp=16)) == 0


class TestGemmEfficiency:
    def test_monotone_in_hidden(self):
        assert gemm_efficiency(8192) > gemm_efficiency(4096) > gemm_efficiency(1600)

    def test_paper_regime(self):
        # 30%+ of peak at h=8192 (Section 10.2's "over 30% of the peak").
        assert 0.30 < gemm_efficiency(8192) < 0.55


class TestFlops:
    def test_checkpointing_adds_a_forward(self):
        cfg = GPTConfig(n_layers=10, hidden=1024, n_heads=16)
        with_ckpt = transformer_flops_per_replica(cfg, batch=4, checkpointing=True)
        without = transformer_flops_per_replica(cfg, batch=4, checkpointing=False)
        assert with_ckpt / without == pytest.approx(96 / 72)

    def test_linear_in_batch(self):
        cfg = GPTConfig(n_layers=10, hidden=1024, n_heads=16)
        f1 = transformer_flops_per_replica(cfg, batch=1)
        f8 = transformer_flops_per_replica(cfg, batch=8)
        assert f8 == pytest.approx(8 * f1)


class TestPerfModelAnchors:
    """The paper's headline performance claims, as shape constraints."""

    def setup_method(self):
        self.pm = PerfModel()
        self.points = {}
        for p in TABLE5_FIGURE2:
            est = self.pm.estimate(p.model, zero_config(p), mesh=p.mesh, batch=p.batch)
            self.points[(p.label, p.system)] = (p, est)

    def test_zero_sustains_30_to_50_tflops_8b_to_100b(self):
        for label in ("8B", "40B", "60B", "80B", "100B"):
            _, est = self.points[(label, "zero")]
            assert 28 < est.tflops_per_gpu < 50, label

    def test_aggregate_15_petaflops_at_100b(self):
        p, est = self.points[("100B", "zero")]
        assert est.tflops_per_gpu * p.n_gpus / 1000 == pytest.approx(15, rel=0.15)

    def test_baseline_collapses_across_nodes(self):
        """Section 10.2: Megatron 40B over 2 nodes ~5 TFlops (<5% peak)."""
        _, est = self.points[("40B", "baseline")]
        assert est.tflops_per_gpu < 0.08 * 125

    def test_speedup_near_10x_at_scale(self):
        for label in ("60B", "80B", "100B", "120B", "140B", "170B"):
            _, ze = self.points[(label, "zero")]
            _, be = self.points[(label, "baseline")]
            assert ze.tflops_per_gpu / be.tflops_per_gpu > 7, label

    def test_small_models_closer(self):
        _, ze = self.points[("1.5B", "zero")]
        _, be = self.points[("1.5B", "baseline")]
        assert ze.tflops_per_gpu / be.tflops_per_gpu < 2

    def test_superlinear_scaling_figure3(self):
        per_gpu = []
        for p in TABLE6_FIGURE3:
            est = self.pm.estimate(p.model, C4, mesh=p.mesh, batch=p.batch)
            per_gpu.append((p.n_gpus, est.tflops_per_gpu))
        # Per-GPU throughput grows with GPU count (=> aggregate superlinear).
        assert per_gpu[-1][1] > per_gpu[0][1]
        agg = {n: n * t for n, t in per_gpu}
        assert agg[128] > 2 * agg[64]  # "more than doubles"

    def test_mp_within_node_cheap_across_node_expensive(self):
        cfg = GPTConfig(n_layers=40, hidden=8192, n_heads=64)
        inside = self.pm.estimate(cfg, C3, mesh=Mesh.of_world(64, mp=16), batch=8)
        across = self.pm.estimate(cfg, C3, mesh=Mesh.of_world(64, mp=32), batch=8)
        assert across.mp_comm_s > 5 * inside.mp_comm_s

    def test_stage3_dp_traffic_is_1_5x_stage2(self):
        cfg = GPTConfig(n_layers=24, hidden=4096, n_heads=32)
        s2 = self.pm.estimate(cfg, C3, mesh=Mesh.of_world(64, mp=1), batch=8)
        s3 = self.pm.estimate(cfg, ZeROConfig(stage=3), mesh=Mesh.of_world(64, mp=1), batch=8)
        assert s3.dp_comm_s / s2.dp_comm_s == pytest.approx(1.5)

    def test_pa_cpu_costs_time(self):
        cfg = GPTConfig(n_layers=75, hidden=8192, n_heads=64)
        plain = self.pm.estimate(cfg, C4, mesh=Mesh.of_world(128, mp=16), batch=16)
        offload = self.pm.estimate(cfg, C5, mesh=Mesh.of_world(128, mp=16), batch=16)
        assert offload.pa_cpu_s > 0
        assert offload.tflops_per_gpu < plain.tflops_per_gpu

    def test_gpus_must_divide_by_mp(self):
        with pytest.raises(ValueError):
            self.pm.estimate(GPTConfig(2, 64, 4), C3, mesh=Mesh.of_world(64, mp=3), batch=1)
