"""ZeRO-DP composed with Megatron MP (the Section 1 'ZeRO and MP' story):
end-to-end training equivalence against the serial model, with and without
Pa, across stages — the full Nd x Nm composition."""

import numpy as np
import pytest

from repro import Cluster, GPTConfig, ZeROConfig
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.optim.adam import AdamHyperparams
from repro.parallel.engine import EngineConfig
from repro.zero.factory import build_model_and_engine
from repro.zero.placement import Mesh

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=64, max_seq_len=16)
CORPUS = SyntheticCorpus(64, seed=9)
MP = 2
MESH = Mesh(dp=2, mp=MP)  # 2-way MP x 2-way DP
WORLD = MESH.world


def run_composed(stage, *, partition_activations=False, steps=3, clip=None, mesh=MESH):
    """Per rank: the step losses, the flat-space size and the parameters
    every MP rank holds whole (name -> values)."""
    cluster = Cluster(mesh.world, gpu=GPU, timeout_s=60.0)

    def fn(ctx):
        zero = ZeROConfig(
            stage=stage, partition_activations=partition_activations,
            checkpoint_activations=True, memory_defrag=False,
        )
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.group(mesh.dp_group(ctx.rank)),
            mp_group=ctx.group(mesh.mp_group(ctx.rank)), dtype=np.float32, seed=5,
            engine_config=EngineConfig(
                adam=AdamHyperparams(lr=1e-3), bucket_numel=1500, grad_clip_norm=clip,
            ),
        )
        dp_index = mesh.dp_group(ctx.rank).index(ctx.rank)
        losses = []
        for step in range(steps):
            ids, tgt = CORPUS.sample_batch(2, 16, rank=dp_index, step=step)
            losses.append(engine.train_step(ids, tgt).loss)
        replicated = {p.name: p.data.numpy().copy() for p in model.parameters()
                      if not p.mp_sharded and p.data.data is not None}
        return losses, engine.layout.numel, replicated

    return cluster.run(fn)


def run_dp_only(stage, *, steps=3, clip=None):
    """Reference: DP=2 with serial (non-MP) replicas on the same data."""
    return [losses for losses, _, _ in
            run_composed(stage, steps=steps, clip=clip, mesh=Mesh(dp=MESH.dp))]


@pytest.mark.parametrize("stage", [0, 1, 2])
def test_zero_mp_matches_dp_only_training(stage):
    """Same model, same data per DP replica: adding MP must not change
    the training trajectory (float32 all-reduce tolerance)."""
    composed = run_composed(stage)
    reference = run_dp_only(stage)
    for dp_replica in range(2):
        mp_rank_losses = composed[dp_replica * MP][0]
        ref = reference[dp_replica]
        np.testing.assert_allclose(mp_rank_losses, ref, rtol=2e-5)


@pytest.mark.parametrize("stage", [1, 2])
def test_pa_changes_nothing_numerically(stage):
    plain = run_composed(stage, partition_activations=False)
    pa = run_composed(stage, partition_activations=True)
    for rank in range(WORLD):
        assert plain[rank][0] == pa[rank][0]


def test_mp_partners_agree_and_replicas_shard():
    results = run_composed(2)
    # MP partners (same replica) compute identical losses.
    assert results[0][0] == results[1][0]
    assert results[2][0] == results[3][0]
    # Each rank's flat space is the MP-local parameter count, not the full model.
    assert results[0][1] < CFG.total_params


@pytest.mark.parametrize("stage", [0, 2])
def test_clipping_keeps_mp_replicas_equal(stage):
    """The clip norm counts each gradient element of the replica once: the
    MP shards summed across ``mp``, the MP-replicated parameters (layer
    norms, embeddings, row-parallel biases) once. Every MP rank then clips
    by the same factor, so those parameters stay bitwise equal across MP
    ranks and match the unsplit run's: losses within the MP tolerance,
    parameters within it plus an absolute floor of 1e-6 for the near-zero
    ones (clipping each MP rank by its own norm moves some by 3e-5)."""
    clip = 0.05
    composed = run_composed(stage, clip=clip)
    reference = run_composed(stage, clip=clip, mesh=Mesh(dp=MESH.dp))
    for dp_replica in range(MESH.dp):
        (losses, _, first), (_, _, second) = composed[dp_replica * MP : (dp_replica + 1) * MP]
        ref_losses, _, ref_params = reference[dp_replica]
        np.testing.assert_allclose(losses, ref_losses, rtol=2e-5)
        assert first and first.keys() == second.keys()
        for name, value in first.items():
            assert np.array_equal(value, second[name]), name
            np.testing.assert_allclose(value, ref_params[name], rtol=2e-5, atol=1e-6)


def test_stage3_composes_with_mp():
    composed = run_composed(3)
    reference = run_dp_only(3)
    for dp_replica in range(2):
        np.testing.assert_allclose(
            composed[dp_replica * MP][0], reference[dp_replica], rtol=2e-5
        )
