"""Figure 3: super-linear scalability of a 60B model, 64 -> 400 GPUs.

Pos+g reduces per-GPU model-state memory as the DP degree grows, so more
GPUs allow a bigger per-GPU batch (appendix Table 6: 16 -> 64), which
raises arithmetic intensity and amortizes the fixed per-step DP traffic —
aggregate performance grows faster than the GPU count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.max_model import max_batch
from repro.analysis.perf_model import PerfModel
from repro.configs import TABLE6_FIGURE3
from repro.utils.tables import format_table
from repro.zero.config import C4  # Pos+g + Pa: the ZeRO-100B configuration


@dataclass(frozen=True)
class Fig3Row:
    n_gpus: int
    batch: int
    tflops_per_gpu: float
    aggregate_pflops: float
    perfect_linear_pflops: float
    solver_max_batch: int  # our memory model's own max batch at this Nd

    @property
    def superlinear(self) -> bool:
        return self.aggregate_pflops > self.perfect_linear_pflops


def run() -> list[Fig3Row]:
    pm = PerfModel()
    rows: list[Fig3Row] = []
    base_per_gpu = None
    for point in TABLE6_FIGURE3:
        est = pm.estimate(point.model, C4, mesh=point.mesh, batch=point.batch)
        if base_per_gpu is None:
            base_per_gpu = est.tflops_per_gpu
        solver_b = max_batch(point.model, C4, mesh=point.mesh)
        rows.append(
            Fig3Row(
                n_gpus=point.n_gpus, batch=point.batch,
                tflops_per_gpu=est.tflops_per_gpu,
                aggregate_pflops=est.tflops_per_gpu * point.n_gpus / 1000.0,
                perfect_linear_pflops=base_per_gpu * point.n_gpus / 1000.0,
                solver_max_batch=solver_b,
            )
        )
    return rows


def render(rows: list[Fig3Row]) -> str:
    return format_table(
        ["GPUs", "batch (Table 6)", "max batch (our solver)", "TF/GPU",
         "aggregate PF", "perfect-linear PF", "super-linear?"],
        [
            [r.n_gpus, r.batch, r.solver_max_batch, f"{r.tflops_per_gpu:.1f}",
             f"{r.aggregate_pflops:.2f}", f"{r.perfect_linear_pflops:.2f}",
             "yes" if r.superlinear else "-"]
            for r in rows
        ],
        title="Figure 3 — 60B model scalability (super-linear vs 64-GPU baseline)",
    )
