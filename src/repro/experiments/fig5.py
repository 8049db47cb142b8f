"""Figure 5: Turing-NLG — the larger ZeRO-trained model reaches lower
validation perplexity than the smaller baseline-scale model.

The paper trains a 17B model (ZeRO-100B) past Megatron-LM 8.3B's SOTA
perplexity. We cannot train 17B parameters; the claims this experiment
reproduces at small scale are:

1. *ZeRO changes nothing about optimization*: training the same model with
   ZeRO stage 2 on 4 ranks produces a validation-perplexity curve bitwise
   identical to baseline DDP (paper Section 2.2.3 / 10.6's premise).
2. *Capacity wins*: a larger model (more layers/width) trained the same way
   reaches lower perplexity on the same synthetic corpus — the Figure 5
   shape (17B curve below 8.3B curve).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import Cluster, GPTConfig
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.nn.module import ExecutionContext
from repro.optim.adam import AdamHyperparams
from repro.parallel.engine import EngineConfig
from repro.tensor.tensor import Tensor
from repro.utils.tables import format_table
from repro.zero.config import ZeROConfig
from repro.zero.factory import build_model_and_engine

VOCAB = 101
SEQ = 32
EVAL_EVERY = 5  # steps between validation points
WORLD_SIZE = 4
SEED = 11


@dataclass(frozen=True)
class TrainingCurve:
    label: str
    stage: int
    val_perplexity: list[float]

    @property
    def final(self) -> float:
        return self.val_perplexity[-1]


def _val_perplexity(model, corpus, rank: int) -> float:
    """Mean next-token perplexity on a held-out slice (step key -1xx)."""
    loss_head = model.make_loss_head()
    total = 0.0
    n_batches = 2
    for i in range(n_batches):
        ids, tgt = corpus.sample_batch(4, SEQ, rank=1000 + rank, step=i)
        ctx = ExecutionContext(training=False)
        logits, cache = model.forward(Tensor.from_numpy(ids), ctx)
        loss, lcache = loss_head.forward(logits, Tensor.from_numpy(tgt))
        total += float(loss.numpy())
        lcache.free()
        cache.free()
        logits.free_if_alive()
    return float(np.exp(total / n_batches))


def train_curve(
    config: GPTConfig,
    *,
    stage: int,
    label: str,
    steps: int = 30,
) -> TrainingCurve:
    corpus = SyntheticCorpus(VOCAB, seed=91)
    gpu = GPUSpec("fig5-gpu", 4 * 10**9, 1e12)
    cluster = Cluster(WORLD_SIZE, gpu=gpu)

    def run(ctx):
        zero = ZeROConfig(stage=stage, checkpoint_activations=False, memory_defrag=False)
        model, engine = build_model_and_engine(
            ctx, config, zero, dp_group=ctx.world, dtype=np.float32, seed=SEED,
            engine_config=EngineConfig(adam=AdamHyperparams(lr=3e-3)),
        )
        curve = []
        for step in range(steps):
            ids, tgt = corpus.sample_batch(4, SEQ, rank=ctx.rank, step=step)
            engine.train_step(ids, tgt)
            if (step + 1) % EVAL_EVERY == 0:
                curve.append(_val_perplexity(model, corpus, rank=0))
        return curve

    curves = cluster.run(run)
    # All ranks evaluate the same data on identical replicas.
    return TrainingCurve(label=label, stage=stage, val_perplexity=curves[0])


SMALL = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=VOCAB, max_seq_len=SEQ)
LARGE = GPTConfig(n_layers=4, hidden=64, n_heads=8, vocab_size=VOCAB, max_seq_len=SEQ)


def run(steps: int = 30) -> list[TrainingCurve]:
    return [
        train_curve(SMALL, stage=0, label="small (8.3B-scale proxy), DDP", steps=steps),
        train_curve(SMALL, stage=2, label="small (8.3B-scale proxy), ZeRO-2", steps=steps),
        train_curve(LARGE, stage=2, label="large (17B-scale proxy), ZeRO-2", steps=steps),
    ]


def render(curves: list[TrainingCurve]) -> str:
    rows = [
        [c.label, " ".join(f"{p:.3f}" for p in c.val_perplexity), f"{c.final:.3f}"]
        for c in curves
    ]
    return format_table(
        ["run", "validation perplexity over training", "final"],
        rows,
        title="Figure 5 — Turing-NLG shape: ZeRO == DDP curves; larger model wins",
    )
