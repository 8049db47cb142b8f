"""Closed-form memory model vs the paper's published numbers."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.memory_model import (
    ActivationModel,
    max_model_params,
    model_state_bytes,
    temporary_buffer_bytes,
    total_device_bytes,
)
from repro.nn.transformer import GPTConfig
from repro.runtime import virtual_rank_context
from repro.utils.units import BILLION, GB
from repro.zero.config import C1, C2, C5, ZeROConfig
from repro.zero.factory import build_model_and_engine
from repro.zero.placement import Mesh


class TestModelStateFormulas:
    def test_figure1_worked_example(self):
        """Psi=7.5B, Nd=64: 120 / 31.4 / 16.6 / 1.9 GB."""
        psi, nd = 7.5e9, 64
        assert model_state_bytes(psi, Mesh(dp=nd), 0) / GB == pytest.approx(120.0)
        assert model_state_bytes(psi, Mesh(dp=nd), 1) / GB == pytest.approx(31.4, abs=0.05)
        assert model_state_bytes(psi, Mesh(dp=nd), 2) / GB == pytest.approx(16.6, abs=0.05)
        assert model_state_bytes(psi, Mesh(dp=nd), 3) / GB == pytest.approx(1.88, abs=0.01)

    def test_gpt2_needs_24gb(self):
        # Section 3.1: 1.5B GPT-2 needs "at least 24GB" vs 3GB of fp16 weights.
        assert model_state_bytes(1.5e9, Mesh(dp=1), 0) / GB == pytest.approx(24.0)

    @pytest.mark.parametrize(
        "model_gb, nd, stage, expected",
        [
            (7.5e9, 4, 1, 52.5), (7.5e9, 4, 2, 41.3), (7.5e9, 4, 3, 30.0),
            (7.5e9, 16, 3, 7.5), (7.5e9, 1024, 1, 30.1),
            (128e9, 16, 1, 608.0), (128e9, 64, 2, 284.0), (128e9, 1024, 3, 2.0),
            (1e12, 1, 1, 16000.0), (1e12, 1024, 3, 15.6),
        ],
    )
    def test_table1_cells(self, model_gb, nd, stage, expected):
        per_device = model_state_bytes(model_gb, Mesh(dp=nd), stage)
        assert per_device / GB == pytest.approx(expected, rel=0.01)

    def test_asymptotic_reductions(self):
        """4x / 8x / Nd reductions claimed in the introduction."""
        psi, nd = 1e9, 1_000_000
        base = model_state_bytes(psi, Mesh(dp=nd), 0)
        assert base / model_state_bytes(psi, Mesh(dp=nd), 1) == pytest.approx(4.0, rel=0.01)
        assert base / model_state_bytes(psi, Mesh(dp=nd), 2) == pytest.approx(8.0, rel=0.01)
        assert base / model_state_bytes(psi, Mesh(dp=64), 3) == pytest.approx(64.0)

    def test_trillion_on_1024_gpus_fits(self):
        """Section 5.4: Pos+g+p fits 1T parameters on 1024 x 32GB GPUs."""
        per_device = model_state_bytes(1e12, Mesh(dp=1024), 3)
        assert per_device <= 32 * GB

    @settings(max_examples=40, deadline=None)
    @given(
        psi=st.floats(1e6, 1e13),
        nd=st.integers(1, 4096),
    )
    def test_property_stage_ordering(self, psi, nd):
        """More aggressive stages never use more memory; all are positive."""
        vals = [model_state_bytes(psi, Mesh(dp=nd), s) for s in (0, 1, 2, 3)]
        assert vals[0] >= vals[1] >= vals[2] >= vals[3] > 0

    @settings(max_examples=40, deadline=None)
    @given(psi=st.floats(1e6, 1e12), nd=st.integers(1, 2048), stage=st.integers(1, 3))
    def test_property_monotone_in_nd(self, psi, nd, stage):
        wider = model_state_bytes(psi, Mesh(dp=nd * 2), stage)
        assert model_state_bytes(psi, Mesh(dp=nd), stage) >= wider

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            model_state_bytes(1e9, Mesh(dp=0), 1)
        with pytest.raises(ValueError):
            model_state_bytes(1e9, Mesh(dp=1), 5)


class TestMaxModelParams:
    def test_table2_theoretical_row1(self):
        """MP=1, 64 GPUs: 2B / 7.6B / 14.4B / 128B."""
        mem = 32 * GB
        assert max_model_params(mem, Mesh(dp=64), 0) / BILLION == pytest.approx(2.0)
        assert max_model_params(mem, Mesh(dp=64), 1) / BILLION == pytest.approx(7.64, abs=0.05)
        assert max_model_params(mem, Mesh(dp=64), 2) / BILLION == pytest.approx(14.42, abs=0.05)
        assert max_model_params(mem, Mesh(dp=64), 3) / BILLION == pytest.approx(128.0)

    def test_mp_multiplies_linearly(self):
        mem = 32 * GB
        base = max_model_params(mem, Mesh(dp=64), 1)
        for mp in (2, 4, 8, 16):
            assert mp * base == pytest.approx(max_model_params(mem, Mesh(dp=64, mp=mp), 1))


class TestActivationModel:
    def test_paper_gpt2_60gb(self):
        """Section 3.2: 1.5B GPT-2, seq 1K, batch 32 -> ~60 GB activations."""
        act = ActivationModel(hidden=1600, n_layers=48, seq_len=1024, batch=32)
        assert act.total_bytes() / GB == pytest.approx(60.0, rel=0.05)

    def test_paper_100b_checkpoint_example(self):
        """Section 6.1: 100B model (125 x 8192), batch 32, seq 1024 — the
        paper reports ~33 GB of checkpoints per GPU without Pa and ~2 GB
        with Pa at MP=16. One checkpoint per layer gives exactly 2x those
        numbers (67 / 4.2 GB), i.e. the paper's figures correspond to
        checkpointing every other layer; the Pa ratio (= MP degree 16x)
        holds either way and is the claim under test."""
        act = ActivationModel(hidden=8192, n_layers=125, seq_len=1024, batch=32)
        no_pa = act.checkpoint_bytes(C1.placement, Mesh(mp=16))
        with_pa = act.checkpoint_bytes(C2.placement, Mesh(mp=16))
        assert no_pa / GB == pytest.approx(67.1, rel=0.02)
        assert no_pa / 2 / GB == pytest.approx(33.0, rel=0.05)  # paper's number
        assert no_pa / with_pa == pytest.approx(16.0)  # Pa saves the MP factor
        assert act.checkpoint_bytes(C5.placement, Mesh(mp=16)) == 0.0

    def test_checkpointing_beats_full_activations(self):
        act = ActivationModel(hidden=4096, n_layers=50, seq_len=1024, batch=8)
        assert act.iteration_bytes(checkpointing=True) < act.total_bytes() / 4

    def test_pa_divides_by_mp(self):
        act = ActivationModel(hidden=1024, n_layers=10, seq_len=128, batch=4)
        assert act.checkpoint_bytes(C2.placement, Mesh(mp=1)) == pytest.approx(
            16 * act.checkpoint_bytes(C2.placement, Mesh(mp=16))
        )


class TestBuffersAndTotal:
    def test_paper_6gb_fused_buffer(self):
        """Section 3.2: 1.5B params -> 6 GB fp32 fused buffer without CB."""
        assert temporary_buffer_bytes(1.5e9, ZeROConfig(constant_buffers=False)) / GB == pytest.approx(6.0)

    def test_cb_is_constant(self):
        small = temporary_buffer_bytes(1e9, ZeROConfig(constant_buffers=True))
        large = temporary_buffer_bytes(1e12, ZeROConfig(constant_buffers=True))
        assert small == large

    def test_total_charges_the_configured_constant_buffer(self):
        """CB trades the closed form's full 4 Psi fused buffer for exactly
        the fixed buffer's bytes, which is what a meta engine allocates."""
        act = ActivationModel(64, 2, 16, 1)
        cb = ZeROConfig(stage=1, constant_buffers=True)
        no_cb = replace(cb, constant_buffers=False)
        drop = (total_device_bytes(1e8, act, no_cb, mesh=Mesh(dp=4))
                - total_device_bytes(1e8, act, cb, mesh=Mesh(dp=4)))
        assert drop == 4 * (10**8 - (1 << 22)) == 383_222_784
        ctx = virtual_rank_context(4)
        cfg = GPTConfig(n_layers=2, hidden=64, n_heads=4, vocab_size=64, max_seq_len=16)
        _, engine = build_model_and_engine(ctx, cfg, cb, dp_group=ctx.world, meta=True)
        assert engine._cb_buffer.nbytes == temporary_buffer_bytes(1e6, cb) == 4 * (1 << 22)

    def test_total_compounds_mp_and_dp(self):
        """Section 1: max theoretical reduction Nd x Nm on model states."""
        act = ActivationModel(hidden=1024, n_layers=4, seq_len=64, batch=1)
        dense = total_device_bytes(1e9, act, ZeROConfig(stage=0), mesh=Mesh(dp=1, mp=1))
        sharded = total_device_bytes(
            1e9, act, ZeROConfig(stage=3, partition_activations=True), mesh=Mesh(dp=8, mp=4)
        )
        assert dense / sharded > 8  # dominated by the 32x model-state cut
