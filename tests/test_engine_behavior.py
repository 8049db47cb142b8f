"""Engine-level behaviours: CB fused buffers, dynamic loss scaling under
real fp16 overflow, bucket queue mechanics, config plumbing."""

import numpy as np
import pytest

from repro import Cluster, GPTConfig, ZeROConfig
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.optim.adam import AdamHyperparams
from repro.parallel.ddp import GradBucketQueue
from repro.parallel.engine import EngineConfig
from repro.nn.layers import make_param
from repro.zero.config import C1, C2, C3, C4, C5, CONSTANT_BUFFER_NUMEL, PAPER_CONFIGS
from repro.runtime import virtual_rank_context
from repro.zero.factory import build_model_and_engine

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)


class TestGradBucketQueue:
    def _params(self, sizes):
        return [make_param(f"p{i}", (s,), init="zeros") for i, s in enumerate(sizes)]

    def test_flushes_at_threshold(self):
        flushed = []
        q = GradBucketQueue(10, flushed.append)
        params = self._params([4, 4, 4])
        q.on_grad_ready(params[0])
        q.on_grad_ready(params[1])
        assert flushed == []
        q.on_grad_ready(params[2])  # 12 >= 10
        assert len(flushed) == 1 and len(flushed[0]) == 3

    def test_none_threshold_only_flushes_manually(self):
        flushed = []
        q = GradBucketQueue(None, flushed.append)
        for p in self._params([100, 100]):
            q.on_grad_ready(p)
        assert flushed == []
        q.flush()
        assert len(flushed) == 1 and len(flushed[0]) == 2

    def test_flush_empty_is_noop(self):
        flushed = []
        GradBucketQueue(10, flushed.append).flush()
        assert flushed == []

    @staticmethod
    def _pending_list(bucket_numel, handoffs):
        """What grouping one round afresh flushes — the per-parameter
        pending list the queue had before its buckets were fixed: per
        flush, the handoff it came at (``len`` for the round's end) and
        the bucket's names."""
        flushed, pending, numel = [], [], 0
        for i, p in enumerate(handoffs):
            pending.append(p.name)
            numel += p.size
            if bucket_numel is not None and numel >= bucket_numel:
                flushed.append((i, pending))
                pending, numel = [], 0
        if pending:
            flushed.append((len(handoffs), pending))
        return flushed

    @pytest.mark.parametrize("seed", range(8))
    def test_fixed_buckets_flush_where_grouping_afresh_flushes(self, seed):
        """Rounds that repeat the first round's ready order, and rounds that
        swap, drop, cut or repeat a handoff: every flush comes at the same
        handoff with the same bucket as grouping that round afresh, and a
        round in the fixed order re-plans nothing."""
        rng = np.random.default_rng(seed)
        params = self._params([int(s) for s in rng.integers(1, 9, 12)])
        bucket_numel = None if seed == 7 else int(rng.integers(4, 20))
        q = GradBucketQueue(bucket_numel, lambda rec: flushed.append((at[0], [p.name for p in rec.params])))
        order = [params[i] for i in rng.permutation(len(params))]
        handoffs = order
        for r in range(16):
            kind = r % 4  # 0: the last round's order again; else a change of ``order``
            if kind:
                handoffs = list(order)
            if kind == 1:
                i, j = rng.choice(len(handoffs), 2, replace=False)
                handoffs[i], handoffs[j] = handoffs[j], handoffs[i]
            elif kind == 2:
                del handoffs[int(rng.integers(len(handoffs)))]
            elif kind == 3:
                handoffs = handoffs[: int(rng.integers(1, len(handoffs)))]
                handoffs.append(handoffs[0])
            records = list(q.records)
            flushed, at = [], [0]
            for i, p in enumerate(handoffs):
                at[0] = i
                q.on_grad_ready(p)
            at[0] = len(handoffs)
            q.flush()
            assert flushed == self._pending_list(bucket_numel, handoffs), (r, kind)
            if r and kind == 0:
                assert q.records == records  # the same records: nothing re-planned


class TestConstantBuffers:
    def _run(self, constant_buffers):
        cluster = Cluster(2, gpu=GPU, timeout_s=60.0)

        def fn(ctx):
            zero = ZeROConfig(stage=0, checkpoint_activations=False, memory_defrag=False,
                              constant_buffers=constant_buffers)
            model, engine = build_model_and_engine(
                ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=0,
            )
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=0)
            r = engine.train_step(ids, tgt)
            cb = engine._cb_buffer.nbytes if engine._cb_buffer is not None else None
            return r.loss, cb

        return cluster.run(fn)

    def test_cb_buffer_size_is_constant_config(self):
        results = self._run(True)
        assert results[0][1] == CONSTANT_BUFFER_NUMEL * 4  # fp32 elements

    def test_no_cb_means_transient_full_buffer(self):
        results = self._run(False)
        assert results[0][1] is None

    def test_cb_chunking_changes_nothing_numerically(self, monkeypatch):
        # A buffer far smaller than the model: many tiny chunks through it.
        monkeypatch.setattr("repro.parallel.engine.CONSTANT_BUFFER_NUMEL", 128)
        with_cb = self._run(True)
        without = self._run(False)
        assert with_cb[0][0] == without[0][0]

    def test_factory_wires_cb_from_zero_config(self):
        cluster = Cluster(2, gpu=GPU, timeout_s=60.0)

        def fn(ctx):
            zero = ZeROConfig(stage=1, constant_buffers=True, memory_defrag=False,
                              checkpoint_activations=False)
            model, engine = build_model_and_engine(
                ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=0,
            )
            return engine._cb_buffer.size

        assert cluster.run(fn) == [CONSTANT_BUFFER_NUMEL] * 2


class TestDynamicLossScaling:
    # inf/NaN propagating through fp16 math is the *point* of this test.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_skips_in_lockstep_and_recovers(self):
        """Force an fp16 overflow via a huge loss scale: all ranks must skip
        the same step, halve the scale, and keep training consistently."""
        cluster = Cluster(2, gpu=GPU, timeout_s=60.0)

        def fn(ctx):
            zero = ZeROConfig(stage=2, checkpoint_activations=False, memory_defrag=False)
            model, engine = build_model_and_engine(
                ctx, CFG, zero, dp_group=ctx.world, dtype=np.float16, seed=0,
                engine_config=EngineConfig(
                    adam=AdamHyperparams(lr=1e-3),
                    loss_scale=2.0**22,  # guarantees initial fp16 gradient overflow
                    dynamic_loss_scale=True,
                ),
            )
            applied = []
            scales = []
            for step in range(8):
                ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
                applied.append(engine.train_step(ids, tgt).applied)
                scales.append(engine.scaler.scale)
            return applied, scales

        results = cluster.run(fn)
        applied0, scales0 = results[0]
        assert applied0[0] is False  # first step skipped on overflow
        assert True in applied0  # scale backs off until steps apply
        assert scales0[-1] < 2.0**22
        assert results[1] == results[0]  # lockstep across ranks

    def test_static_scale_preserved(self):
        cluster = Cluster(2, gpu=GPU, timeout_s=60.0)

        def fn(ctx):
            zero = ZeROConfig(stage=0, checkpoint_activations=False, memory_defrag=False)
            model, engine = build_model_and_engine(
                ctx, CFG, zero, dp_group=ctx.world, dtype=np.float16, seed=0,
                engine_config=EngineConfig(loss_scale=128.0),
            )
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=0)
            engine.train_step(ids, tgt)
            return engine.scaler.scale

        assert cluster.run(fn) == [128.0, 128.0]


class TestZeROConfig:
    def test_paper_presets(self):
        assert C1.stage == 1 and not C1.partition_activations
        assert C2.stage == 1 and C2.partition_activations
        assert C3.stage == 2 and not C3.partition_activations
        assert C4.stage == 2 and C4.partition_activations
        assert C5.cpu_offload_activations
        assert list(PAPER_CONFIGS) == ["C1", "C2", "C3", "C4", "C5"]

    def test_labels(self):
        assert "Pos+g" in C4.label and "Pa" in C4.label
        assert "Pa+cpu" in C5.label

    def test_validation(self):
        with pytest.raises(ValueError):
            ZeROConfig(stage=7)
        with pytest.raises(ValueError):
            ZeROConfig(stage=2, cpu_offload_activations=True)  # Pa+cpu needs Pa

    def test_factory_rejects_pa_without_mp_group(self):
        cluster = Cluster(1, gpu=GPU)

        def fn(ctx):
            with pytest.raises(ValueError, match="MP group"):
                build_model_and_engine(
                    ctx, CFG, ZeROConfig(stage=2, partition_activations=True),
                    dp_group=ctx.world,
                )
            return True

        assert cluster.run(fn) == [True]


class TestEngineInputs:
    def test_numpy_inputs_freed_after_step(self):
        cluster = Cluster(2, gpu=GPU, timeout_s=60.0)

        def fn(ctx):
            zero = ZeROConfig(stage=2, checkpoint_activations=False, memory_defrag=False)
            model, engine = build_model_and_engine(
                ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=0,
            )
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=0)
            before = ctx.device.allocated_bytes
            engine.train_step(ids, tgt)
            engine.train_step(ids, tgt)
            after = ctx.device.allocated_bytes
            return after - before

        # Steady state: no growth between identical steps.
        assert cluster.run(fn) == [0, 0]

    def test_model_without_params_rejected(self):
        from repro.nn.module import Module
        from repro.parallel.ddp import DDPEngine

        cluster = Cluster(1, gpu=GPU)

        def fn(ctx):
            empty = Module("empty")
            with pytest.raises(ValueError, match="no parameters"):
                DDPEngine(ctx, empty, ctx.world, ZeROConfig())
            return True

        assert cluster.run(fn) == [True]

    def test_an_engine_refuses_a_config_of_another_stage(self):
        from repro.zero.factory import ENGINE_BY_STAGE

        ctx = virtual_rank_context(2, gpu=GPU)
        model, _ = build_model_and_engine(ctx, CFG, ZeROConfig(), dp_group=ctx.world, meta=True)
        for stage, engine_cls in ENGINE_BY_STAGE.items():
            other = ZeROConfig(stage=(stage + 1) % 4)
            with pytest.raises(ValueError, match=f"runs ZeRO stage {stage}"):
                engine_cls(ctx, model, ctx.world, other)


class TestStepLifecycle:
    """What the step lifecycle owes its two kinds of caller: an outside
    observer patching a boundary on the class, and the run with nothing
    attached."""

    def test_a_method_patched_on_the_class_after_setup_is_the_one_that_runs(self, monkeypatch):
        """hostbench installs its probe on the classes *after* the engines
        are built and warmed up; dispatch looks every method up at call
        time, so the next step goes through the patched ones."""
        from repro import RedundancyConfig
        from repro.infinity import InfinityConfig
        from repro.infinity.engine import InfinityEngine
        from repro.integrity.audit import IntegrityAuditor
        from repro.memprof import MemoryProfiler
        from repro.redundancy import BuddyStore
        from repro.redundancy.manager import RedundancyManager
        from repro.telemetry import TelemetrySession
        from repro.telemetry.spans import Tracer

        cluster = Cluster(
            2, gpu=GPU, timeout_s=60.0, telemetry=TelemetrySession(),
            redundancy=BuddyStore(RedundancyConfig()),
        )
        engines = [None, None]

        def setup(ctx):
            MemoryProfiler(ctx.device)
            zero = ZeROConfig(stage=3, memory_defrag=False, audit_cadence=1,
                              infinity=InfinityConfig(param_tier="host"))
            _, engines[ctx.rank] = build_model_and_engine(
                ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=0,
            )
            step(ctx)

        def step(ctx):
            engine = engines[ctx.rank]
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=engine.step_count)
            engine.train_step(ids, tgt)

        cluster.run(setup)
        seen = []
        watched = [
            (IntegrityAuditor, "on_boundary"), (IntegrityAuditor, "after_optimizer"),
            (RedundancyManager, "on_boundary"), (InfinityEngine, "begin_micro"),
            (InfinityEngine, "finish_step"), (InfinityEngine, "trace_step"),
            (MemoryProfiler, "note_step"), (Tracer, "begin"),
        ]
        for cls, name in watched:
            def wrapper(self, *args, _original=getattr(cls, name), _key=(cls.__name__, name), **kwargs):
                seen.append(_key)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)
        cluster.run(step)
        for cls, name in watched:
            assert seen.count((cls.__name__, name)) >= 2, (cls.__name__, name)  # both ranks
        for engine in engines:
            engine.ctx.device.profiler.detach()

    def test_a_step_with_nothing_attached_costs_no_more_calls_and_holds_no_subscriber(self):
        """One hook-free stage-2 ``train_step`` on 2 ranks makes no more
        than 8 950 function calls (Python + C, as ``sys.setprofile`` counts
        them) over both ranks: 8 834 (4 417 + 4 417) since a bucket is a
        gradient record with a flat buffer, 9 686 while its flush copied
        every gradient piece by piece, 12 170 at the commit before the
        lifecycle.
        Calibrated on CPython 3.11.7; another interpreter may count a
        ``with`` or a comprehension differently, which the assertion message
        shows. The engine holds no subscriber of its own — only the
        module's stateless ``MEMORY`` — and is freed without a gc pass."""
        import gc
        import sys
        import weakref

        from repro.parallel import lifecycle

        def fn(ctx):
            model, engine = build_model_and_engine(
                ctx, CFG, ZeROConfig(stage=2, memory_defrag=False),
                dp_group=ctx.world, dtype=np.float32, seed=0,
            )
            engine.train_step(*CORPUS.sample_batch(2, 16, rank=ctx.rank, step=0))
            batch = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=1)
            calls = [0]

            def on_event(frame, event, arg):
                if event == "call" or event == "c_call":
                    calls[0] += 1

            sys.setprofile(on_event)
            engine.train_step(*batch)
            sys.setprofile(None)
            life = engine._lifecycle
            subscribers = {sub for point in lifecycle.POINTS for sub in getattr(life, point)}
            ref = weakref.ref(engine)
            del engine, model, life
            return calls[0] - 1, subscribers, ref()  # less the closing setprofile call

        gc.collect()
        gc.disable()
        try:
            results = Cluster(2, gpu=GPU, timeout_s=60.0).run(fn)
        finally:
            gc.enable()
        assert sum(r[0] for r in results) <= 8_950, ([r[0] for r in results], sys.version)
        for _, subscribers, survivor in results:
            assert subscribers == {lifecycle.MEMORY}
            assert survivor is None
