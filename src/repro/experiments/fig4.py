"""Figure 4: democratization — large models without model parallelism.

ZeRO-100B (Pos+g) trains up to 13B parameters on 128 GPUs with plain data
parallelism (no model refactoring), at 40+ TFlops/GPU; baseline DP runs
out of memory beyond ~1.4B and sustains under 20 TFlops. Appendix Table 10
provides the exact configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.max_model import device_bytes_for
from repro.analysis.perf_model import PerfModel
from repro.configs import TABLE10_FIGURE4_DP_ONLY
from repro.utils.tables import format_table
from repro.utils.units import GB
from repro.zero.config import ZeROConfig


@dataclass(frozen=True)
class Fig4Row:
    label: str
    system: str
    psi_b: float
    batch: int
    tflops_per_gpu: float
    memory_gb: float
    fits_32gb: bool


def run() -> list[Fig4Row]:
    pm = PerfModel()
    rows = []
    for point in TABLE10_FIGURE4_DP_ONLY:
        stage = 2 if point.system == "zero" else 0
        zero = ZeROConfig(stage=stage, checkpoint_activations=True)
        est = pm.estimate(point.model, zero, mesh=point.mesh, batch=point.batch)
        mem = device_bytes_for(point.model, zero, mesh=point.mesh, batch=point.batch)
        rows.append(
            Fig4Row(
                label=point.label, system=point.system,
                psi_b=point.model.total_params / 1e9, batch=point.batch,
                tflops_per_gpu=est.tflops_per_gpu, memory_gb=mem / GB,
                fits_32gb=mem <= 32 * GB,
            )
        )
    return rows


def render(rows: list[Fig4Row]) -> str:
    return format_table(
        ["model", "system", "params", "batch/GPU", "TF/GPU", "mem GB", "fits 32GB"],
        [
            [r.label, r.system, f"{r.psi_b:.2f}B", r.batch,
             f"{r.tflops_per_gpu:.1f}", f"{r.memory_gb:.1f}",
             "yes" if r.fits_32gb else "NO"]
            for r in rows
        ],
        title="Figure 4 — DP-only training on 128 GPUs (ZeRO-100B vs baseline DP)",
    )
