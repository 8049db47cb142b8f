"""Table 2: max theoretical model size (analysis) and measured model size.

Left half — closed form: the largest Psi whose per-device model states fit
32 GB, for baseline/Pos/Pos+g/Pos+g+p across the paper's (MP, GPUs) rows.

Right half — "measured": the paper ran real configs until OOM; we bisect
the layer count of an h=8192 GPT family in meta mode on the simulated
32 GB device (one virtual rank of the full job), with activation
checkpointing, CB and Pa, reading actual allocator behaviour. As in the
paper, measured sizes land below the theoretical bound because
activations, embeddings and buffers also occupy the device.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.memory_model import max_model_params
from repro.configs import TABLE2_ROWS
from repro.experiments.common import meta_memory_step
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


def _measured_max_b(stage: int, mp: int, gpus: int, *, batch: int = 8, hidden: int = 4096,
                    heads: int = 32) -> float:
    """Bisect layers until the meta-mode step stops fitting on 32 GB."""
    zero = ZeROConfig(stage=stage, checkpoint_activations=True,
                      partition_activations=(mp > 1), memory_defrag=False)
    if mp <= 1:
        zero = replace(zero, partition_activations=False)

    def fits(layers: int) -> bool:
        cfg = GPTConfig(n_layers=layers, hidden=hidden, n_heads=heads)
        return meta_memory_step(
            cfg, zero, n_gpus=gpus, mp=mp, batch=batch, gpu=V100_32GB
        ).fits

    if not fits(1):
        return 0.0
    lo, hi = 1, 2
    while hi <= 2048 and fits(hi):
        lo, hi = hi, hi * 2
    hi = min(hi, 2048)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return GPTConfig(n_layers=lo, hidden=hidden, n_heads=heads).total_params / BILLION


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


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
