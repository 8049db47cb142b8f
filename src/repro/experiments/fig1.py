"""Figure 1: per-device model-state memory across ZeRO-DP stages.

The paper's worked example: Psi = 7.5B, Nd = 64, K = 12 ->
baseline 120 GB, Pos 31.4 GB, Pos+g 16.6 GB, Pos+g+p 1.9 GB.

Two reproductions: the closed-form values, and a *measured* column from
running real engines on a small model and reading the simulated device's
model-state bytes, verifying the formulas describe what the engines do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import Cluster, GPTConfig
from repro.analysis.memory_model import model_state_bytes
from repro.configs import FIGURE1_ND, FIGURE1_PSI
from repro.hardware.specs import GPUSpec
from repro.parallel.engine import EngineConfig
from repro.utils.tables import format_table
from repro.utils.units import GB
from repro.zero.config import ZeROConfig
from repro.zero.factory import build_model_and_engine
from repro.zero.placement import Mesh

STAGE_LABELS = {0: "baseline", 1: "Pos", 2: "Pos+g", 3: "Pos+g+p"}
MESH = Mesh(dp=FIGURE1_ND)  # the worked example's DP degree


@dataclass(frozen=True)
class Fig1Row:
    stage: int
    label: str
    analytic_gb: float
    # From the small-model measured run: bytes per parameter element.
    measured_bytes_per_param: float | None = None


def analytic_rows() -> list[Fig1Row]:
    return [
        Fig1Row(stage=s, label=STAGE_LABELS[s],
                analytic_gb=model_state_bytes(FIGURE1_PSI, MESH, s) / GB)
        for s in (0, 1, 2, 3)
    ]


def measured_bytes_per_param(stage: int) -> float:
    """Model-state bytes per parameter measured from a real engine.

    Runs one step on a tiny model over four ranks and reads the
    device bytes that persist across steps (params + grads + optimizer
    state), normalized per parameter for comparison with 16, 4+12/Nd etc.
    """
    cfg = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=64, max_seq_len=16)
    gpu = GPUSpec("fig1-gpu", 2 * 10**9, 1e12)
    cluster = Cluster(4, gpu=gpu)

    def run(ctx):
        from repro.data import SyntheticCorpus

        zero = ZeROConfig(stage=stage, checkpoint_activations=False,
                          memory_defrag=False, constant_buffers=True)
        model, engine = build_model_and_engine(
            ctx, cfg, zero, dp_group=ctx.world, dtype=np.float16, seed=0,
            engine_config=EngineConfig(),
        )
        corpus = SyntheticCorpus(64, seed=5)
        ids, tgt = corpus.sample_batch(2, 16, rank=ctx.rank, step=0)
        # Sample device bytes at optimizer-step entry: activations are
        # freed, gradients are still live per the stage's semantics —
        # exactly the "model states" the formulas describe.
        sampled = {}
        original = engine._optimizer_step

        def sampling_step():
            sampled["bytes"] = ctx.device.allocated_bytes - (
                engine._cb_buffer.nbytes if engine._cb_buffer is not None else 0
            )
            return original()

        engine._optimizer_step = sampling_step
        engine.train_step(ids, tgt)
        return sampled["bytes"] / engine.layout.numel

    return float(np.mean(cluster.run(run)))


def run(measure: bool = True) -> list[Fig1Row]:
    rows = analytic_rows()
    if measure:
        rows = [
            Fig1Row(r.stage, r.label, r.analytic_gb, measured_bytes_per_param(r.stage))
            for r in rows
        ]
    return rows


def render(rows: list[Fig1Row]) -> str:
    table_rows = []
    for r in rows:
        formula_nd64 = model_state_bytes(1.0, MESH, r.stage)
        formula_nd4 = model_state_bytes(1.0, Mesh(dp=4), r.stage)
        table_rows.append([
            r.label,
            f"{r.analytic_gb:.1f}",
            f"{formula_nd64:.3f}",
            f"{formula_nd4:.3f}",
            "-" if r.measured_bytes_per_param is None else f"{r.measured_bytes_per_param:.3f}",
        ])
    return format_table(
        ["config", "GB @ 7.5B/Nd=64", "bytes/param Nd=64", "bytes/param Nd=4",
         "measured bytes/param Nd=4"],
        table_rows,
        title="Figure 1 — per-device model-state memory",
    )
