"""Table 1: per-device model-state GB vs DP degree for 7.5B / 128B / 1T.

Boldface in the paper marks combinations fitting a 32 GB V100; we mark
them with '*'.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.memory_model import model_state_bytes
from repro.configs import TABLE1_DP_DEGREES, TABLE1_MODEL_SIZES
from repro.experiments.common import Claim
from repro.hardware.specs import V100_32GB
from repro.utils.tables import format_table
from repro.utils.units import GB
from repro.zero.config import STAGE_NAMES
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
        headers += [f"{model} {STAGE_NAMES[stage]}" for stage in (1, 2, 3)]
    return format_table(
        headers, rows,
        title="Table 1 — per-device model-state memory (GB); '*' fits a 32GB V100",
    )


def metrics(cells: list[Table1Cell]):
    return {f"gb_{c.model}_nd{c.nd}_stage{c.stage}": (c.gb, "GB") for c in cells}, {"table": "table1"}


#: (model, Nd, stage, whether the paper sets the cell in bold: fits 32 GB)
PAPER_FITS = (
    ("7.5B", 64, 1, True), ("7.5B", 16, 1, False), ("7.5B", 16, 2, True), ("7.5B", 4, 2, False),
    ("7.5B", 4, 3, True), ("1T", 1024, 3, True), ("1T", 1024, 2, False),
)


def claims(cells: list[Table1Cell]) -> list[Claim]:
    index = {(c.model, c.nd, c.stage): c for c in cells}
    return [
        Claim(f"{model} {STAGE_NAMES[stage]} at Nd={nd}", "fits 32 GB" if bold else "over 32 GB",
              f"{index[model, nd, stage].gb:.3g} GB", index[model, nd, stage].fits_32gb == bold)
        for model, nd, stage, bold in PAPER_FITS
    ]


SOURCES = {"test_table1_memory_vs_dp": run}
