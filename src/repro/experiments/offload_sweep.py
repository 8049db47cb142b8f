"""ZeRO-Offload democratization sweep + the tier schedule on uniform pieces.

Two results, in the spirit of the paper's Figure 4 democratization story:

1. **Max trainable model vs device budget.** On a single GPU, stage-2
   model states cost 16 Psi bytes of device memory; offloading the
   optimizer state and gradient shard to the host leaves only 2 Psi (the
   fp16 parameters). For every device budget the offloaded configuration
   trains a strictly larger model — trading device HBM for host DRAM over
   PCIe, which is what puts multi-billion-parameter fine-tuning on a
   single commodity GPU.

2. **Uniform schedule vs simulated timeline.** The same meta-mode
   engines that produce the memory figures also drive the tier runtime's
   per-step transfer timeline. ``evaluate_step`` on
   ``StepInputs.uniform`` — equal gradient pieces, the inputs of
   ZeRO-Offload's closed-form streaming regimes — over the host-only
   placement (``offload_tiers``) must land within 5% of the
   engine's step time on its real pieces, across stages, gradient
   streaming, and DPU.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.max_model import max_layers
from repro.analysis.memory_model import state_bytes_by_tier
from repro.experiments.infinity_sweep import InfinityTimeRow, run_time
from repro.hardware.topology import ClusterTopology
from repro.infinity.config import InfinityConfig
from repro.utils.tables import format_table
from repro.utils.units import GB
from repro.zero.config import ZeROConfig
from repro.zero.placement import Mesh

BUDGETS_GB = (4, 8, 16, 32)
HIDDEN = 2048
HEADS = 16
BATCH = 1


def offload_tiers(streamed: bool, dpu: bool = False) -> InfinityConfig:
    """ZeRO-Offload's placement: host Adam state, gradients streamed to
    the host or kept on the device, parameters on the device."""
    return InfinityConfig(
        optimizer_tier="host", grad_tier="host" if streamed else "device",
        param_tier="device", delayed_param_update=dpu,
    )


@dataclass(frozen=True)
class OffloadFitRow:
    budget_gb: float
    device_psi_b: float  # max params (billions), everything on-device
    offload_psi_b: float  # max params with optimizer+gradient offload
    ratio: float
    host_gb: float  # host DRAM the offloaded states need
    host_fits: bool  # within one GPU's fair share of node DRAM


@dataclass(frozen=True)
class OffloadSweepResult:
    fit_rows: list[OffloadFitRow]
    time_rows: list[InfinityTimeRow]


def run_fit(budgets_gb=BUDGETS_GB) -> list[OffloadFitRow]:
    """Single-GPU max trainable model, offload off vs on."""
    device_cfg = ZeROConfig(stage=2)
    offload_cfg = replace(device_cfg, infinity=offload_tiers(streamed=True))
    host_budget = ClusterTopology.for_world_size(1).host_bytes_per_gpu
    rows = []
    for budget in budgets_gb:
        common = dict(mesh=Mesh(), hidden=HIDDEN, heads=HEADS, batch=BATCH,
                      budget_bytes=budget * GB)
        base = max_layers(device_cfg, **common)
        off = max_layers(offload_cfg, **common)
        host = state_bytes_by_tier(off.psi, Mesh(), offload_cfg.placement)["host"]
        rows.append(
            OffloadFitRow(
                budget_gb=float(budget),
                device_psi_b=base.psi / 1e9,
                offload_psi_b=off.psi / 1e9,
                ratio=off.psi / base.psi if base.psi else float("inf"),
                host_gb=host / GB,
                host_fits=host <= host_budget,
            )
        )
    return rows


#: the host-only placements the tier time sweep runs (``run_time``)
TIME_CASES = (
    ("stage1 boundary d2h", 1, offload_tiers(streamed=False)),
    ("stage2 streamed", 2, offload_tiers(streamed=True)),
    ("stage2 streamed + DPU", 2, offload_tiers(streamed=True, dpu=True)),
    ("stage3 streamed", 3, offload_tiers(streamed=True)),
)


def run() -> OffloadSweepResult:
    return OffloadSweepResult(fit_rows=run_fit(), time_rows=run_time(TIME_CASES))


def render(result: OffloadSweepResult) -> str:
    fit = format_table(
        ["device budget", "max on-device", "max offloaded", "ratio", "host GB", "host fits"],
        [
            [f"{r.budget_gb:.0f} GB", f"{r.device_psi_b:.2f}B", f"{r.offload_psi_b:.2f}B",
             f"{r.ratio:.1f}x", f"{r.host_gb:.1f}", "yes" if r.host_fits else "NO"]
            for r in result.fit_rows
        ],
        title="ZeRO-Offload democratization — max trainable model, 1 GPU (stage 2)",
    )
    time = format_table(
        ["case", "stage", "streamed", "DPU", "sim step s", "uniform step s", "err %"],
        [
            [r.label, r.stage, "yes" if r.config.grad_tier != "device" else "no",
             "yes" if r.config.delayed_param_update else "no",
             f"{r.sim_step_s:.5f}", f"{r.uniform_step_s:.5f}", f"{100 * r.rel_err:.2f}"]
            for r in result.time_rows
        ],
        title="Offload schedule, uniform pieces vs simulated timeline (meta engines)",
    )
    return fit + "\n\n" + time
