"""Section 7: measured ZeRO-DP communication volume per training step.

Runs a real 4-rank cluster (and a meta-mode replica) for each stage and
reads the per-rank ledger. Expected nominal volumes, in units of Psi
(model-size elements), are ``comm_model.dp_volume_elements`` of the stage's
placement: baseline 2, Pos 2, Pos+g 2, Pos+g+p 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import Cluster, GPTConfig
from repro.analysis.comm_model import dp_volume_elements
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.parallel.engine import EngineConfig
from repro.utils.tables import format_table
from repro.zero.config import ZeROConfig
from repro.zero.factory import build_model_and_engine

CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=64, max_seq_len=16)
WORLD_SIZE = 4


@dataclass(frozen=True)
class Sec7Row:
    stage: int
    measured_psi: float
    expected_psi: float
    by_phase: dict[str, float]


def measure_stage(stage: int) -> Sec7Row:
    gpu = GPUSpec("sec7-gpu", 2 * 10**9, 1e12)
    cluster = Cluster(WORLD_SIZE, gpu=gpu)
    corpus = SyntheticCorpus(64, seed=5)

    def run(ctx):
        zero = ZeROConfig(stage=stage, checkpoint_activations=True, memory_defrag=False)
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float16, seed=0,
            engine_config=EngineConfig(bucket_numel=2000),
        )
        ctx.ledger.clear()
        ids, tgt = corpus.sample_batch(2, 16, rank=ctx.rank, step=0)
        engine.train_step(ids, tgt)
        psi_bytes = engine.layout.numel * 2  # fp16 elements
        return ctx.ledger.nominal_bytes() / psi_bytes, {
            phase: volume / psi_bytes for phase, volume in ctx.ledger.by_phase().items()
        }

    results = cluster.run(run)
    volumes = [v for v, _ in results]
    return Sec7Row(
        stage=stage,
        measured_psi=float(np.mean(volumes)),
        expected_psi=dp_volume_elements(1.0, stage),
        by_phase=results[0][1],
    )


def run() -> list[Sec7Row]:
    return [measure_stage(stage) for stage in (0, 1, 2, 3)]


def render(rows: list[Sec7Row]) -> str:
    return format_table(
        ["stage", "measured volume (Psi)", "paper (Psi)", "breakdown"],
        [
            [r.stage, f"{r.measured_psi:.3f}", f"{r.expected_psi:.1f}",
             ", ".join(f"{k}={v:.2f}" for k, v in sorted(r.by_phase.items()))]
            for r in rows
        ],
        title="Section 7 — per-rank DP communication volume per step",
    )
