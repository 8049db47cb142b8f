"""ZeRO memory semantics: partition sizes, gradient release, stage-3
materialization, measured model-state bytes vs the Section 5 formulas."""

import numpy as np
import pytest

from repro import Cluster, GPTConfig, ZeROConfig
from repro.analysis.memory_model import model_state_bytes
from repro.zero.placement import Mesh
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.infinity import InfinityConfig
from repro.memsim.device import Device
from repro.nn.transformer import GPT2Model
from repro.runtime import virtual_rank_context
from repro.optim.adam import AdamHyperparams
from repro.parallel.engine import EngineConfig
from repro.zero.factory import build_model_and_engine
from repro.zero.stage3 import ZeroStage3Engine

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


# -- stage 3 charges construction one unit at a time ---------------------------


def built_stage3(zero, meta, monkeypatch):
    """Build the stage-3 stack on WORLD ranks. Returns rank 0's device peak
    and live bytes once built, its unit names, and the (tag, block size)
    of every allocation construction made on it."""
    blocks = []
    alloc = Device.alloc

    def recording(device, size, tag=""):
        extent = alloc(device, size, tag)
        if device.index == 0:
            blocks.append((tag, extent.size))
        return extent

    monkeypatch.setattr(Device, "alloc", recording)

    def fn(ctx):
        model, _ = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float16, seed=0, meta=meta,
        )
        dev = ctx.device
        return dev.max_allocated_bytes, dev.allocated_bytes, [u.name for u in model.units()]

    peak, live, units = Cluster(WORLD, gpu=GPU, timeout_s=60.0).run(fn)[0]
    return peak, live, units, blocks


@pytest.mark.parametrize("meta", [False, True], ids=["real", "meta"])
def test_stage3_init_holds_one_unit_beside_the_shards(meta, monkeypatch):
    """The init peak is the live shards and CB buffer plus the largest
    unit's blocks: below the whole model, which used to sit beside them."""
    zero = ZeROConfig(stage=3, memory_defrag=False)
    peak, live, units, blocks = built_stage3(zero, meta, monkeypatch)
    by_unit = {u: sum(size for tag, size in blocks if tag.startswith(u + ".")) for u in units}
    assert peak <= live + max(by_unit.values()) < live + sum(by_unit.values())


def test_tiled_stage3_init_holds_one_tile(monkeypatch):
    """Under memory-centric tiling construction stages each unit through
    one ``tile_bytes`` buffer at a time and charges no parameter whole."""
    tile = 1024
    zero = ZeROConfig(
        stage=3, memory_defrag=False, infinity=InfinityConfig(param_tier="host", tile_bytes=tile)
    )
    peak, live, _, blocks = built_stage3(zero, False, monkeypatch)
    assert not [tag for tag, _ in blocks if tag.startswith("gpt2.")]
    assert "infinity-tile" in {tag for tag, _ in blocks}
    assert peak <= live + tile


def test_stage3_refuses_a_charged_model():
    """A model built on the device would stay charged beside the units the
    engine charges itself: the engine refuses it."""
    ctx = virtual_rank_context(WORLD, gpu=GPU)
    model = GPT2Model(CFG, meta=True, device=ctx.device)
    with pytest.raises(ValueError, match="arrived charged"):
        ZeroStage3Engine(ctx, model, ctx.world, ZeROConfig(stage=3, memory_defrag=False))
