"""Table 1: per-device model-state GB vs DP degree for 7.5B / 128B / 1T.

Boldface in the paper marks combinations fitting a 32 GB V100; we mark
them with '*'.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.memory_model import model_state_bytes
from repro.configs import TABLE1_DP_DEGREES, TABLE1_MODEL_SIZES
from repro.hardware.specs import V100_32GB
from repro.utils.tables import format_table
from repro.utils.units import GB
from repro.zero.placement import Mesh


@dataclass(frozen=True)
class Table1Cell:
    model: str
    psi: float
    nd: int
    stage: int
    gb: float
    fits_32gb: bool


def run() -> list[Table1Cell]:
    cells = []
    for model, psi in TABLE1_MODEL_SIZES.items():
        for nd in TABLE1_DP_DEGREES:
            for stage in (1, 2, 3):
                b = model_state_bytes(psi, Mesh(dp=nd), stage)
                cells.append(
                    Table1Cell(
                        model=model, psi=psi, nd=nd, stage=stage, gb=b / GB,
                        fits_32gb=b <= V100_32GB.memory_bytes,
                    )
                )
    return cells


def render(cells: list[Table1Cell]) -> str:
    def fmt(gb: float, fits: bool) -> str:
        text = f"{gb:.3g}" if gb < 100 else f"{gb:.0f}"
        return text + ("*" if fits else "")

    index = {(c.model, c.nd, c.stage): c for c in cells}
    rows = []
    for nd in TABLE1_DP_DEGREES:
        row = [str(nd)]
        for model in TABLE1_MODEL_SIZES:
            for stage in (1, 2, 3):
                c = index[(model, nd, stage)]
                row.append(fmt(c.gb, c.fits_32gb))
        rows.append(row)
    headers = ["DP"]
    for model in TABLE1_MODEL_SIZES:
        headers += [f"{model} Pos", f"{model} Pos+g", f"{model} Pos+g+p"]
    return format_table(
        headers, rows,
        title="Table 1 — per-device model-state memory (GB); '*' fits a 32GB V100",
    )
