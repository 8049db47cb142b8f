"""Combining ZeRO-DP with Megatron tensor model parallelism (+ Pa).

Usage:
    python examples/megatron_plus_zero.py

A 2x2 layout on 4 simulated GPUs: MP groups {0,1} and {2,3}, DP groups
{0,2} and {1,3}. The model's tensors are sharded across each MP pair,
ZeRO stage 2 partitions optimizer states and gradients across the DP
pairs, and ZeRO-R's Pa shards every activation checkpoint across the MP
pair — the full composition of Section 1's "ZeRO and MP" discussion,
running with real numerics.
"""

import numpy as np

from repro import Cluster, GPTConfig, ZeROConfig
from repro.data import SyntheticCorpus
from repro.optim.adam import AdamHyperparams
from repro.parallel.engine import EngineConfig
from repro.utils.units import bytes_to_str
from repro.zero import build_model_and_engine
from repro.zero.placement import Mesh

MP = 2
WORLD = 4
STEPS = 8
CFG = GPTConfig(n_layers=2, hidden=64, n_heads=4, vocab_size=96, max_seq_len=32)
CORPUS = SyntheticCorpus(96, seed=11)


def train(ctx):
    mesh = Mesh.of_world(WORLD, MP)
    mp_group = ctx.group(mesh.mp_group(ctx.rank))
    dp_group = ctx.group(mesh.dp_group(ctx.rank))
    zero = ZeROConfig(stage=2, partition_activations=True,
                      checkpoint_activations=True, memory_defrag=False)
    model, engine = build_model_and_engine(
        ctx, CFG, zero, dp_group=dp_group, mp_group=mp_group,
        dtype=np.float32, seed=5,
        engine_config=EngineConfig(adam=AdamHyperparams(lr=3e-3)),
    )
    losses = []
    for step in range(STEPS):
        # Data is per DP replica: both MP partners consume the same batch.
        ids, tgt = CORPUS.sample_batch(2, 32, rank=ctx.rank // MP, step=step)
        losses.append(engine.train_step(ids, tgt).loss)
    return losses, ctx.device.allocated_bytes, engine.layout.numel


def main():
    print(f"{WORLD} GPUs as {MP}-way MP x {WORLD // MP}-way DP, "
          f"ZeRO-2 + Pa, {CFG.total_params:,}-parameter model\n")
    results = Cluster(WORLD).run(train)
    for rank, (losses, mem, local_params) in enumerate(results):
        print(f"rank {rank}: local params {local_params:,}  "
              f"device {bytes_to_str(mem)}  "
              f"loss {losses[0]:.3f} -> {losses[-1]:.3f}")
    # MP partners hold different shards but must compute identical losses.
    assert results[0][0] == results[1][0], "MP partners diverged"
    assert results[2][0] == results[3][0], "MP partners diverged"
    print("\nMP partners computed identical losses over different parameter shards;")
    print("each rank held ~1/2 of the parameters (MP) and 1/2 of the optimizer")
    print("state of its shard (ZeRO-2 over DP=2): the Nd x Nm compounding.")


if __name__ == "__main__":
    main()
