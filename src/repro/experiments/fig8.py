"""Figure 8: best achievable throughput under configs C1-C5 (60B and 170B).

Lower memory -> larger batch -> better throughput; the exception is
Pa+cpu (C5), whose PCIe traffic costs more than its memory buys unless the
model cannot run (or only runs with a tiny batch) without it — exactly the
170B case. For each config we solve for the max batch with the memory
model and feed it to the performance model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.max_model import max_batch
from repro.analysis.perf_model import PerfModel
from repro.nn.transformer import GPTConfig
from repro.utils.tables import format_table
from repro.zero.config import PAPER_CONFIGS
from repro.zero.placement import Mesh

MODELS = {
    "60B": (GPTConfig(n_layers=75, hidden=8192, n_heads=64), 128),
    "170B": (GPTConfig(n_layers=212, hidden=8192, n_heads=64), 400),
}
MP = 16
MAX_BATCH_CAP = 64  # convergence cap, mirroring the paper's batch choices


@dataclass(frozen=True)
class Fig8Row:
    model: str
    config: str
    batch: int
    tflops_per_gpu: float
    runnable: bool


def run() -> list[Fig8Row]:
    pm = PerfModel()
    rows = []
    for model_label, (cfg, n_gpus) in MODELS.items():
        mesh = Mesh.of_world(n_gpus, MP)
        for name, zero in PAPER_CONFIGS.items():
            b = min(max_batch(cfg, zero, mesh=mesh), MAX_BATCH_CAP)
            if b == 0:
                rows.append(Fig8Row(model_label, name, 0, 0.0, False))
                continue
            est = pm.estimate(cfg, zero, mesh=mesh, batch=b)
            rows.append(Fig8Row(model_label, name, b, est.tflops_per_gpu, True))
    return rows


def render(rows: list[Fig8Row]) -> str:
    return format_table(
        ["model", "config", "max batch", "TF/GPU", "status"],
        [
            [r.model, r.config, r.batch if r.runnable else "-",
             f"{r.tflops_per_gpu:.1f}" if r.runnable else "-",
             "ok" if r.runnable else "does not fit"]
            for r in rows
        ],
        title="Figure 8 — best achievable throughput per config (C1-C5)",
    )
