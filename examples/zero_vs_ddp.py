"""ZeRO == DDP, stage by stage: the paper's central correctness property.

Usage:
    python examples/zero_vs_ddp.py

Trains the same model with baseline DDP and ZeRO stages 1, 2, 3 on
identical data, then shows (a) bitwise-identical loss trajectories — ZeRO
changes *where states live*, never the math (Section 2.2.3) — and (b) the
per-rank model-state memory shrinking exactly as Figure 1 predicts.
"""

import numpy as np

from repro import Cluster, GPTConfig, ZeROConfig
from repro.analysis.memory_model import model_state_bytes
from repro.data import SyntheticCorpus
from repro.optim.adam import AdamHyperparams
from repro.parallel.engine import EngineConfig
from repro.utils.tables import format_table
from repro.zero import build_model_and_engine
from repro.zero.placement import Mesh

WORLD = 4
STEPS = 5
CFG = GPTConfig(n_layers=2, hidden=48, n_heads=4, vocab_size=97, max_seq_len=24)
CORPUS = SyntheticCorpus(97, seed=3)
STAGE_NAMES = {0: "DDP baseline", 1: "ZeRO-1 (Pos)", 2: "ZeRO-2 (Pos+g)", 3: "ZeRO-3 (Pos+g+p)"}


def run_stage(stage):
    cluster = Cluster(WORLD)

    def fn(ctx):
        zero = ZeROConfig(stage=stage, checkpoint_activations=True, memory_defrag=False)
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float32, seed=1,
            engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
        )
        sampled = {}
        original = engine._optimizer_step

        def wrapped():  # sample model-state bytes while gradients are live
            cb = engine._cb_buffer.nbytes if engine._cb_buffer is not None else 0
            sampled["bytes"] = ctx.device.allocated_bytes - cb
            return original()

        engine._optimizer_step = wrapped
        losses = []
        for step in range(STEPS):
            ids, tgt = CORPUS.sample_batch(2, 24, rank=ctx.rank, step=step)
            losses.append(engine.train_step(ids, tgt).loss)
        return losses, sampled["bytes"], engine.layout.numel

    return cluster.run(fn)


def main():
    results = {stage: run_stage(stage) for stage in (0, 1, 2, 3)}
    reference = results[0][0][0]
    rows = []
    for stage, per_rank in results.items():
        losses, state_bytes, numel = per_rank[0]
        identical = all(r[0] == results[0][i][0] for i, r in enumerate(per_rank))
        rows.append([
            STAGE_NAMES[stage],
            f"{losses[-1]:.6f}",
            "bitwise == DDP" if losses == reference else "DIVERGED",
            f"{state_bytes / numel:.2f}",
            f"{model_state_bytes(1, Mesh(dp=WORLD), stage):.2f}",
            "yes" if identical else "no",
        ])
    print(format_table(
        ["engine", "final loss", "trajectory", "measured B/param", "formula B/param",
         "ranks agree"],
        rows,
        title=f"ZeRO vs DDP on {WORLD} simulated GPUs ({CFG.total_params:,} params)",
    ))
    print("\nMeasured bytes/param sits slightly above the formula: allocator")
    print("alignment is visible on a toy model and vanishes at real scale.")


if __name__ == "__main__":
    main()
