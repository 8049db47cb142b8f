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
from repro.experiments.common import Claim
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


def _max_psi_b(rows: list[Fig4Row], system: str) -> float:
    return max(r.psi_b for r in rows if r.system == system)


def metrics(rows: list[Fig4Row]):
    return {
        "max_model_zero": (_max_psi_b(rows, "zero"), "B params"),
        "max_model_baseline": (_max_psi_b(rows, "baseline"), "B params"),
        **{f"tflops_{r.system}_{r.label}": (r.tflops_per_gpu, "TFLOPs/GPU") for r in rows},
    }, {"figure": "fig4"}


def claims(rows: list[Fig4Row]) -> list[Claim]:
    zero = [r for r in rows if r.system == "zero"]
    zero_max, base_max = _max_psi_b(rows, "zero"), _max_psi_b(rows, "baseline")
    return [
        Claim("largest ZeRO DP-only model > 12B", "13B", f"{zero_max:.1f}B", zero_max > 12),
        Claim("every ZeRO DP-only model fits 32 GB", "up to 13B",
              f"{sum(r.fits_32gb for r in zero)} of {len(zero)}", all(r.fits_32gb for r in zero)),
        Claim("largest baseline DP model < 1.5B", "1.4B", f"{base_max:.2f}B", base_max < 1.5),
    ]


SOURCES = {"test_fig4_democratization": run}
