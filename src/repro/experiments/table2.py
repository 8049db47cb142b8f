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
from repro.experiments.common import Claim, measured_max_layers
from repro.hardware.specs import V100_32GB
from repro.nn.transformer import GPTConfig
from repro.utils.tables import format_table
from repro.utils.units import BILLION
from repro.zero.config import STAGE_NAMES, ZeROConfig
from repro.zero.placement import Mesh


@dataclass(frozen=True)
class Table2Row:
    mp: int
    gpus: int
    theoretical_b: dict[str, float]  # stage label -> billions of params
    measured_baseline_b: float
    measured_pos_b: float


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


def run() -> list[Table2Row]:
    rows = []
    mem = V100_32GB.memory_bytes
    for mp, gpus in TABLE2_ROWS:
        mesh = Mesh.of_world(gpus, mp)
        theo = {
            label: max_model_params(mem, mesh, stage) / BILLION
            for stage, label in STAGE_NAMES.items()
        }
        rows.append(Table2Row(mp, gpus, theo, _measured_max_b(0, mp, gpus), _measured_max_b(1, mp, gpus)))
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


def metrics(rows: list[Table2Row]):
    return {
        **{f"measured_baseline_b_mp{r.mp}": (r.measured_baseline_b, "B params") for r in rows},
        **{f"measured_pos_b_mp{r.mp}": (r.measured_pos_b, "B params") for r in rows},
    }, {"table": "table2"}


def claims(rows: list[Table2Row]) -> list[Claim]:
    by_mp = {r.mp: r for r in rows}
    base, pos = by_mp[1].measured_baseline_b, by_mp[1].measured_pos_b

    def theory(mp: int, label: str, paper: float, tol: float, bound: str) -> Claim:
        b = by_mp[mp].theoretical_b[label]
        return Claim(f"theory {label}, MP={mp}, {bound}", f"{paper:g}B", f"{b:.2f}B", abs(b - paper) <= tol)

    return [
        theory(1, "baseline", 2.0, 0.05, "± 0.05B"),
        theory(1, "Pos", 7.6, 0.1, "± 0.1B"),
        theory(1, "Pos+g+p", 128, 1.28, "± 1%"),
        theory(16, "Pos+g+p", 2048, 20.48, "± 1%"),
        Claim("measured baseline, MP=1, in [1, 2]B", "1.3B", f"{base:.2f}B", 1.0 <= base <= 2.0),
        Claim("measured Pos, MP=1, in [4.5, 7.5]B", "6.2B", f"{pos:.2f}B", 4.5 <= pos <= 7.5),
        Claim("measured Pos / baseline, MP=1, > 3", "4.8x", f"{pos / base:.1f}x", pos / base > 3),
    ]


SOURCES = {"test_table2_max_model": run}
