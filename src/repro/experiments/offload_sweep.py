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

import numpy as np

from repro.analysis.max_model import max_layers
from repro.analysis.memory_model import state_bytes_by_tier
from repro.hardware.topology import ClusterTopology
from repro.infinity.config import InfinityConfig
from repro.infinity.schedule import StepInputs, steady_step
from repro.nn.transformer import GPTConfig
from repro.runtime import virtual_rank_context
from repro.tensor.tensor import Tensor
from repro.utils.tables import format_table
from repro.utils.units import GB
from repro.zero.config import ZeROConfig
from repro.zero.factory import build_model_and_engine
from repro.zero.placement import Mesh

BUDGETS_GB = (4, 8, 16, 32)
HIDDEN = 2048
HEADS = 16
BATCH = 1

TIME_MODEL = GPTConfig(n_layers=4, hidden=512, n_heads=8, vocab_size=50257, max_seq_len=1024)
TIME_BATCH = 4
TIME_SEQ = 1024
TIME_ND = 2
TIME_STEPS = 3  # last step is DPU steady state


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
class OffloadTimeRow:
    label: str
    stage: int
    streamed: bool
    dpu: bool
    sim_step_s: float
    uniform_step_s: float
    rel_err: float


@dataclass(frozen=True)
class OffloadSweepResult:
    fit_rows: list[OffloadFitRow]
    time_rows: list[OffloadTimeRow]


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


TIME_CASES = (
    ("stage1 boundary d2h", 1, False, False),
    ("stage2 streamed", 2, True, False),
    ("stage2 streamed + DPU", 2, True, True),
    ("stage3 streamed", 3, True, False),
)


def run_time() -> list[OffloadTimeRow]:
    """Meta-mode simulated step time vs the same schedule on uniform inputs."""
    rows = []
    for label, stage, streamed, dpu in TIME_CASES:
        zero = ZeROConfig(
            stage=stage, memory_defrag=False, infinity=offload_tiers(streamed, dpu),
        )
        ctx = virtual_rank_context(TIME_ND)
        model, engine = build_model_and_engine(
            ctx, TIME_MODEL, zero, dp_group=ctx.world, meta=True,
        )
        ids = Tensor.meta((TIME_BATCH, TIME_SEQ), np.int64, device=ctx.device)
        targets = Tensor.meta((TIME_BATCH, TIME_SEQ), np.int64, device=ctx.device)
        for _ in range(TIME_STEPS):
            result = engine.train_step(ids, targets)
        sim = result.step_time_model_s
        runtime, tiers = engine.offload, zero.infinity
        inputs = StepInputs.uniform(
            TIME_MODEL, tiers, batch=TIME_BATCH, seq_len=TIME_SEQ,
            checkpointing=zero.checkpoint_activations,
            numel=engine.part_numel, peak_flops=ctx.device.spec.peak_flops,
            grad_chunks=max(len(runtime.last_grad_pieces), 1),
        )
        uniform = steady_step(inputs, tiers, runtime.pcie.link, runtime.nvme_stream.link).step_s
        rows.append(
            OffloadTimeRow(
                label=label, stage=stage, streamed=streamed, dpu=dpu, sim_step_s=sim,
                uniform_step_s=uniform, rel_err=abs(uniform - sim) / sim,
            )
        )
    return rows


def run() -> OffloadSweepResult:
    return OffloadSweepResult(fit_rows=run_fit(), time_rows=run_time())


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
            [r.label, r.stage, "yes" if r.streamed else "no", "yes" if r.dpu else "no",
             f"{r.sim_step_s:.5f}", f"{r.uniform_step_s:.5f}", f"{100 * r.rel_err:.2f}"]
            for r in result.time_rows
        ],
        title="Offload schedule, uniform pieces vs simulated timeline (meta engines)",
    )
    return fit + "\n\n" + time


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
