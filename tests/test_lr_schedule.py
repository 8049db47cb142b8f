"""LR schedules: shapes, bounds, and engine integration across stages."""

import numpy as np
import pytest

from repro import Cluster, GPTConfig, ZeROConfig
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.optim.adam import AdamHyperparams
from repro.optim.lr_schedule import WarmupCosineDecay
from repro.parallel.engine import EngineConfig
from repro.zero.factory import build_model_and_engine

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)


class TestSchedules:
    def test_cosine_shape(self):
        s = WarmupCosineDecay(peak_lr=1.0, warmup_steps=2, total_steps=10, min_lr=0.0)
        assert s.lr(2) == pytest.approx(1.0)
        mid = s.lr(6)
        assert 0.4 < mid < 0.6  # half-way cosine
        assert s.lr(10) == 0.0
        # Monotone decrease after warmup.
        values = [s.lr(t) for t in range(2, 11)]
        assert values == sorted(values, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            WarmupCosineDecay(peak_lr=1.0, warmup_steps=10, total_steps=5)
        with pytest.raises(ValueError):
            WarmupCosineDecay(peak_lr=0.1, warmup_steps=1, total_steps=5, min_lr=0.5)
        with pytest.raises(ValueError):
            WarmupCosineDecay(peak_lr=1.0, warmup_steps=2, total_steps=5).lr(0)


class _Constant:
    """A schedule that returns one learning rate at every step."""

    def __init__(self, value: float):
        self.value = value

    def lr(self, step: int) -> float:
        return self.value


class TestEngineIntegration:
    def run(self, stage, schedule, steps=4):
        cluster = Cluster(2, gpu=GPU, timeout_s=60.0)

        def fn(ctx):
            zero = ZeROConfig(stage=stage, checkpoint_activations=False, memory_defrag=False)
            model, engine = build_model_and_engine(
                ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=3,
                engine_config=EngineConfig(
                    adam=AdamHyperparams(lr=999.0),  # overridden by the schedule
                    lr_schedule=schedule,
                ),
            )
            deltas = []
            prev = engine.opt_state.master.data.copy()
            for step in range(steps):
                ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
                engine.train_step(ids, tgt)
                cur = engine.opt_state.master.data
                deltas.append(float(np.abs(cur - prev).mean()))
                prev = cur.copy()
            return deltas, engine.opt_state.master.data.copy()

        return cluster.run(fn)

    def test_warmup_grows_update_magnitude(self):
        schedule = WarmupCosineDecay(peak_lr=1e-3, warmup_steps=4, total_steps=8)
        deltas = self.run(2, schedule)[0][0]
        # Update magnitude grows through warmup (Adam's momentum history
        # keeps the growth sub-linear in lr, so check monotonicity + a
        # substantial overall rise rather than an exact 4x).
        assert deltas[0] < deltas[1] < deltas[3]
        assert deltas[3] / deltas[0] > 1.5

    def test_schedule_preserves_cross_stage_equivalence(self):
        schedule = WarmupCosineDecay(peak_lr=1e-3, warmup_steps=2, total_steps=10)
        ddp = self.run(0, schedule)
        for stage in (1, 2, 3):
            z = self.run(stage, schedule)
            full = ddp[0][1]
            part = len(full) // 2
            for rank in range(2):
                np.testing.assert_array_equal(
                    z[rank][1], full[rank * part : (rank + 1) * part]
                )

    def test_schedule_none_uses_config_lr(self):
        a = self.run(2, None, steps=1)
        b = self.run(2, _Constant(999.0), steps=1)
        np.testing.assert_array_equal(a[0][1], b[0][1])
