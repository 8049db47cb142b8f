"""Section 9: the compute-power gap toward 1T parameters (closed forms)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.compute_gap import (
    summarize_1t_gap,
    training_days_same_hardware,
)
from repro.analysis.memory_model import model_state_bytes
from repro.hardware.specs import V100_32GB
from repro.utils.tables import format_table
from repro.zero.placement import Mesh


@dataclass(frozen=True)
class Sec9Row:
    claim: str
    paper: str
    reproduced: str


def run() -> list[Sec9Row]:
    summary = summarize_1t_gap()
    per_device = model_state_bytes(1e12, Mesh(dp=1024), 3)
    fits = per_device <= V100_32GB.memory_bytes
    return [
        Sec9Row(
            "1T fits on 1024 GPUs with Pos+g+p",
            "16 TB / 1024 = 16 GB < 32 GB",
            f"{per_device / 1e9:.1f} GB per device; fits={fits}",
        ),
        Sec9Row(
            "compute multiple vs Bert-Large",
            "~3000x",
            f"{summary.compute_multiple:.0f}x",
        ),
        Sec9Row(
            "train time, same hardware+tokens",
            "140 days",
            f"{summary.days_same_tokens:.0f} days",
        ),
        Sec9Row(
            "with data/sequence growth",
            "over a year",
            f"{summary.days_scaled_tokens:.0f} days",
        ),
        Sec9Row(
            "machine class for ~2-week training",
            "an exa-flop system",
            f"{summary.exaflops_for_two_weeks:.2f} EFlop/s sustained",
        ),
    ]


def render(rows: list[Sec9Row]) -> str:
    return format_table(
        ["claim", "paper", "reproduced"],
        [[r.claim, r.paper, r.reproduced] for r in rows],
        title="Section 9 — step towards 1 trillion parameters",
    )
