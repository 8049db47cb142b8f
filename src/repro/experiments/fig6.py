"""Figure 6: largest trainable model under ZeRO configs C1-C5.

Paper setup: MP = 16, 128 GPUs, fixed batch; enabling Pa lifts the max
from 40B to 60B (16x less activation-checkpoint memory), Pos+g lifts it to
140B (halved model states vs Pos), and Pa+cpu adds the last 10B (150B).
We solve for the largest h=8192 model with the analytic memory model, and
cross-check each solution point with a meta-mode allocator run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.max_model import max_layers
from repro.experiments.common import measured_max_layers
from repro.nn.transformer import GPTConfig
from repro.utils.tables import format_table
from repro.zero.config import PAPER_CONFIGS
from repro.zero.placement import Mesh

N_GPUS = 128
MP = 16
BATCH = 16
HIDDEN = 8192
HEADS = 64


@dataclass(frozen=True)
class Fig6Row:
    config: str
    label: str
    max_params_b: float  # allocator-verified
    n_layers: int
    analytic_params_b: float  # closed-form memory model's answer


def run() -> list[Fig6Row]:
    rows = []
    mesh = Mesh.of_world(N_GPUS, MP)
    for name, zero in PAPER_CONFIGS.items():
        analytic = max_layers(zero, mesh=mesh, hidden=HIDDEN, heads=HEADS, batch=BATCH)
        layers = measured_max_layers(
            zero, hidden=HIDDEN, heads=HEADS, n_gpus=N_GPUS, mp=MP, batch=BATCH,
            start=analytic.config.n_layers,
        )
        cfg = GPTConfig(n_layers=max(layers, 1), hidden=HIDDEN, n_heads=HEADS)
        rows.append(
            Fig6Row(
                config=name, label=zero.label,
                max_params_b=(cfg.total_params / 1e9 if layers else 0.0),
                n_layers=layers,
                analytic_params_b=analytic.psi / 1e9,
            )
        )
    return rows


def render(rows: list[Fig6Row]) -> str:
    return format_table(
        ["config", "optimizations", "max model (allocator)", "layers", "analytic model"],
        [
            [r.config, r.label, f"{r.max_params_b:.0f}B", r.n_layers,
             f"{r.analytic_params_b:.0f}B"]
            for r in rows
        ],
        title=f"Figure 6 — max model size (MP={MP}, batch={BATCH}, {N_GPUS} GPUs)",
    )
