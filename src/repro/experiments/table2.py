"""Table 2: max theoretical model size (analysis) and measured model size.

Left half — closed form: the largest Psi whose per-device model states fit
32 GB, for baseline/Pos/Pos+g/Pos+g+p across the paper's (MP, GPUs) rows.

Right half — "measured": the paper ran real configs until OOM; we bisect
the layer count of an h=4096 GPT family in meta mode on the simulated
32 GB device (one virtual rank of the full job), with activation
checkpointing, CB and Pa, reading actual allocator behaviour. As in the
paper, measured sizes land below the theoretical bound because
activations, embeddings and buffers also occupy the device.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.memory_model import max_model_params
from repro.configs import TABLE2_ROWS
from repro.experiments.common import measured_max_layers
from repro.hardware.specs import V100_32GB
from repro.nn.transformer import GPTConfig
from repro.utils.tables import format_table
from repro.utils.units import BILLION
from repro.zero.config import ZeROConfig
from repro.zero.placement import Mesh


@dataclass(frozen=True)
class Table2Row:
    mp: int
    gpus: int
    theoretical_b: dict[str, float]  # stage label -> billions of params
    measured_baseline_b: float
    measured_pos_b: float


STAGES = {"baseline": 0, "Pos": 1, "Pos+g": 2, "Pos+g+p": 3}
#: the measured half's GPT family and per-replica batch
HIDDEN, HEADS, BATCH = 4096, 32, 8


def _measured_max_b(stage: int, mp: int, gpus: int) -> float:
    """Billions of parameters in the largest model whose meta-mode step
    fits 32 GB, with checkpointing and (under MP) Pa; 0 if none does."""
    zero = ZeROConfig(stage=stage, checkpoint_activations=True,
                      partition_activations=mp > 1, memory_defrag=False)
    layers = measured_max_layers(zero, hidden=HIDDEN, heads=HEADS, n_gpus=gpus, mp=mp, batch=BATCH)
    if not layers:
        return 0.0
    return GPTConfig(n_layers=layers, hidden=HIDDEN, n_heads=HEADS).total_params / BILLION


def run(*, measure: bool = True) -> list[Table2Row]:
    rows = []
    mem = V100_32GB.memory_bytes
    for mp, gpus in TABLE2_ROWS:
        mesh = Mesh.of_world(gpus, mp)
        theo = {
            label: max_model_params(mem, mesh, stage) / BILLION
            for label, stage in STAGES.items()
        }
        measured_base = _measured_max_b(0, mp, gpus) if measure else 0.0
        measured_pos = _measured_max_b(1, mp, gpus) if measure else 0.0
        rows.append(
            Table2Row(mp=mp, gpus=gpus, theoretical_b=theo,
                      measured_baseline_b=measured_base, measured_pos_b=measured_pos)
        )
    return rows


def render(rows: list[Table2Row]) -> str:
    table = []
    for r in rows:
        table.append([
            r.mp, r.gpus,
            f"{r.theoretical_b['baseline']:.1f}B",
            f"{r.theoretical_b['Pos']:.1f}B",
            f"{r.theoretical_b['Pos+g']:.1f}B",
            f"{r.theoretical_b['Pos+g+p']:.0f}B",
            f"{r.measured_baseline_b:.1f}B",
            f"{r.measured_pos_b:.1f}B",
        ])
    return format_table(
        ["MP", "GPUs", "theory base", "theory Pos", "theory Pos+g", "theory Pos+g+p",
         "measured base", "measured Pos"],
        table,
        title="Table 2 — max model size: theory (model states only) vs measured (meta-mode allocator)",
    )
