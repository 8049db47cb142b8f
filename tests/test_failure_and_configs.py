"""Failure injection, paper-config label verification, checkpoint interval."""

import numpy as np
import pytest

from repro import Cluster, GPTConfig, ZeROConfig
from repro.analysis.memory_model import ActivationModel
from repro.configs import (
    TABLE5_FIGURE2,
    TABLE6_FIGURE3,
    TABLE10_FIGURE4_DP_ONLY,
)
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.memsim.errors import OutOfMemoryError
from repro.utils.units import GB
from repro.zero.factory import build_model_and_engine


class TestPaperConfigLabels:
    """Appendix Table 4/5 (layers, hidden) pairs must land near their
    advertised sizes — a consistency check of the whole sizing chain."""

    @pytest.mark.parametrize("point", TABLE5_FIGURE2, ids=lambda p: f"{p.label}-{p.system}")
    def test_table5_sizes(self, point):
        label_b = float(point.label.rstrip("B"))
        actual_b = point.model.total_params / 1e9
        assert actual_b == pytest.approx(label_b, rel=0.18), (point.label, actual_b)

    def test_table6_is_60b(self):
        for point in TABLE6_FIGURE3:
            assert point.model.total_params / 1e9 == pytest.approx(62, rel=0.05)

    def test_table10_dp_only_monotone(self):
        zero_points = [p for p in TABLE10_FIGURE4_DP_ONLY if p.system == "zero"]
        sizes = [p.model.total_params for p in zero_points]
        assert sizes == sorted(sizes)
        assert sizes[-1] / 1e9 == pytest.approx(13, rel=0.05)

    def test_total_batch_consistency(self):
        """total_batch == per-replica batch x DP degree for every row."""
        for point in TABLE5_FIGURE2 + TABLE6_FIGURE3:
            assert point.total_batch == point.batch * point.dp, point.label


class TestCheckpointInterval:
    def test_interval_halves_checkpoint_memory(self):
        one = ActivationModel(hidden=8192, n_layers=124, seq_len=1024, batch=32)
        two = ActivationModel(hidden=8192, n_layers=124, seq_len=1024, batch=32,
                              checkpoint_interval=2)
        assert one.checkpoint_bytes() == pytest.approx(2 * two.checkpoint_bytes())

    def test_paper_33gb_example_is_interval_two(self):
        act = ActivationModel(hidden=8192, n_layers=124, seq_len=1024, batch=32,
                              checkpoint_interval=2)
        assert act.checkpoint_bytes() / GB == pytest.approx(33, rel=0.05)

    def test_interval_grows_working_set(self):
        base = ActivationModel(hidden=1024, n_layers=8, seq_len=64, batch=2)
        wide = ActivationModel(hidden=1024, n_layers=8, seq_len=64, batch=2,
                               checkpoint_interval=4)
        assert wide.working_bytes() == pytest.approx(4 * base.working_bytes())

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            ActivationModel(hidden=8, n_layers=4, seq_len=8, batch=1,
                            checkpoint_interval=5)
        with pytest.raises(ValueError):
            ActivationModel(hidden=8, n_layers=4, seq_len=8, batch=1,
                            checkpoint_interval=0)


class TestFailureInjection:
    def test_oom_mid_training_propagates_cleanly(self):
        """A rank whose device genuinely cannot hold the step must raise
        OutOfMemoryError to the caller, releasing the other ranks."""
        tiny_gpu = GPUSpec("tiny", 3 * 10**6, 1e12)  # 3 MB: params fit, step won't
        cfg = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
        corpus = SyntheticCorpus(61, seed=7)
        cluster = Cluster(2, gpu=tiny_gpu, timeout_s=20.0)

        def fn(ctx):
            zero = ZeROConfig(stage=2, checkpoint_activations=False, memory_defrag=False)
            model, engine = build_model_and_engine(
                ctx, cfg, zero, dp_group=ctx.world, dtype=np.float32, seed=0,
            )
            ids, tgt = corpus.sample_batch(64, 16, rank=ctx.rank, step=0)
            engine.train_step(ids, tgt)

        with pytest.raises(OutOfMemoryError):
            cluster.run(fn)

    def test_rank_exception_does_not_hang_collectives(self):
        gpu = GPUSpec("t", 10**9, 1e12)
        cluster = Cluster(3, gpu=gpu, timeout_s=10.0)

        def fn(ctx):
            if ctx.rank == 1:
                raise KeyError("injected failure")
            # Peers are mid-collective when rank 1 dies.
            ctx.world.all_reduce(ctx.rank, np.ones(8, np.float32))

        with pytest.raises(KeyError, match="injected failure"):
            cluster.run(fn)

    # inf/NaN propagating through fp16 math is part of this test. The filter
    # is the test's, not a ``catch_warnings`` per rank thread: the warnings
    # filters are process-wide, so a thread leaving its block would restore
    # the suite's error filter under a peer still inside one.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_engine_survives_skipped_step_then_trains(self):
        """After an overflow-skipped step the engine must keep training
        (state intact, no leaked gradients)."""
        gpu = GPUSpec("t", 2 * 10**9, 1e12)
        cfg = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
        corpus = SyntheticCorpus(61, seed=7)
        cluster = Cluster(2, gpu=gpu, timeout_s=30.0)

        def fn(ctx):
            from repro.parallel.engine import EngineConfig

            zero = ZeROConfig(stage=2, checkpoint_activations=False, memory_defrag=False)
            model, engine = build_model_and_engine(
                ctx, cfg, zero, dp_group=ctx.world, dtype=np.float16, seed=0,
                engine_config=EngineConfig(loss_scale=2.0**22, dynamic_loss_scale=True),
            )
            outcomes = []
            for step in range(10):
                ids, tgt = corpus.sample_batch(2, 16, rank=ctx.rank, step=step)
                outcomes.append(engine.train_step(ids, tgt).applied)
            return outcomes

        outcomes = cluster.run(fn)[0]
        assert outcomes[0] is False and True in outcomes
