"""ZeRO memory semantics: partition sizes, gradient release, stage-3
materialization, measured model-state bytes vs the Section 5 formulas."""

import numpy as np
import pytest

from repro import Cluster, GPTConfig, ZeROConfig
from repro.analysis.memory_model import model_state_bytes
from repro.zero.placement import Mesh
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.optim.adam import AdamHyperparams
from repro.parallel.engine import EngineConfig
from repro.zero.factory import build_model_and_engine

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)
WORLD = 4


def run_stage(stage, probe):
    """Run one step on WORLD ranks; ``probe(ctx, engine)`` runs at
    optimizer-step entry (grads live); returns per-rank probe results."""
    cluster = Cluster(WORLD, gpu=GPU, timeout_s=60.0)

    def fn(ctx):
        zero = ZeROConfig(stage=stage, checkpoint_activations=True, memory_defrag=False)
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float16, seed=0,
            engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3), bucket_numel=1000),
        )
        out = {}
        original = engine._optimizer_step

        def wrapped():
            out["probe"] = probe(ctx, engine)
            return original()

        engine._optimizer_step = wrapped
        ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=0)
        engine.train_step(ids, tgt)
        return out["probe"]

    return cluster.run(fn)


@pytest.mark.parametrize("stage", [0, 1, 2, 3])
def test_model_state_bytes_match_formula(stage):
    """Measured device bytes at optimizer entry ~= the Figure 1 formula
    (within per-allocation alignment overhead)."""

    def probe(ctx, engine):
        buffers = engine._cb_buffer.nbytes if engine._cb_buffer is not None else 0
        return (ctx.device.allocated_bytes - buffers, engine.layout.numel)

    results = run_stage(stage, probe)
    for measured, numel in results:
        expected = model_state_bytes(numel, Mesh(dp=WORLD), stage)
        # Alignment adds up to 512 bytes/allocation; tiny models feel it.
        slack = 0.25 * expected + 512 * 80
        assert abs(measured - expected) <= slack, (measured, expected)


def test_stage2_frees_full_gradients_during_backward():
    def probe(ctx, engine):
        live_grads = sum(
            p.grad.size for p in engine.layout.parameters if p.grad is not None
        )
        return live_grads, engine.layout.numel

    for live, numel in run_stage(2, probe):
        # Buckets are flushed before the optimizer runs; nothing remains.
        assert live == 0, (live, numel)


def test_stage1_keeps_full_gradients():
    def probe(ctx, engine):
        return sum(p.grad.size for p in engine.layout.parameters if p.grad is not None)

    sizes = run_stage(1, probe)
    full = CFG.total_params
    for live in sizes:
        assert live == full


def test_stage3_params_dematerialized_outside_compute():
    def probe(ctx, engine):
        materialized = [
            p.name for p in engine.layout.parameters if not p.data.freed
        ]
        return materialized

    for names in run_stage(3, probe):
        assert names == []  # all units dematerialized at optimizer time


def test_stage3_shard_sizes():
    def probe(ctx, engine):
        return engine.param_shard.size, engine.grad_shard.size, engine.opt_state.numel

    for p, g, o in run_stage(3, probe):
        total = -(-CFG.total_params // WORLD) * WORLD
        assert p == g == o == total // WORLD


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_partitioned_optimizer_state_is_one_over_nd(stage):
    def probe(ctx, engine):
        return engine.opt_state.numel, engine.layout.numel

    for part, numel in run_stage(stage, probe):
        assert part == numel // WORLD


def test_ddp_optimizer_state_is_full():
    def probe(ctx, engine):
        return engine.opt_state.numel, engine.layout.numel

    for part, numel in run_stage(0, probe):
        assert part == numel


def test_memory_freed_after_engine_free():
    cluster = Cluster(2, gpu=GPU, timeout_s=60.0)

    def fn(ctx):
        zero = ZeROConfig(stage=2, checkpoint_activations=True, memory_defrag=False)
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float16, seed=0,
        )
        ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=0)
        engine.train_step(ids, tgt)
        engine.free()
        model.free_parameters()
        return ctx.device.allocated_bytes

    for leftover in cluster.run(fn):
        assert leftover == 0
