"""ZeRO-Infinity tier sweep + the tier schedule on uniform vs real pieces.

Two results, extending the ZeRO-Offload democratization story down the
full memory hierarchy:

1. **Max trainable model per tier reach.** At a fixed device budget, a
   single GPU training stage 3 holds 16 Psi bytes of model states
   device-side. Opening the host tier moves up to 16 Psi into DRAM
   (capped by the GPU's fair share of node DRAM); opening NVMe moves the
   same states onto a pool ~20x larger still. Each row searches the
   largest model whose *device* footprint fits the budget and whose
   off-device states fit their tier's capacity — the binding tier is
   reported. The paper-scale claim: host+NVMe trains a >= 10x larger
   model than device-only at the same device budget.

2. **Uniform schedule vs simulated timeline.** The same meta-mode
   engines that produce the memory numbers drive ``InfinityEngine``'s
   multi-tier transfer schedule. ``evaluate_step`` on
   ``StepInputs.uniform`` — equal gradient pieces and optimizer chunks,
   the inputs the ZeRO-Infinity closed forms assume, over the engine's
   own links and gather profile — must land within 5% of the engine's
   step time on its real pieces, across placements, paged gathers,
   tiling, and DPU. ``run_time`` takes its cases, so ZeRO-Offload's
   host-only placements (``offload_sweep.TIME_CASES``) run the same sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.max_model import SEQ_LEN, VOCAB, _largest, device_bytes_for
from repro.analysis.memory_model import state_bytes_by_tier
from repro.experiments.common import meta_engine
from repro.hardware.topology import ClusterTopology
from repro.infinity.config import InfinityConfig
from repro.infinity.schedule import StepInputs, steady_step
from repro.nn.transformer import GPTConfig
from repro.runtime import virtual_rank_context
from repro.utils.tables import format_table
from repro.utils.units import GB
from repro.zero.config import ZeROConfig
from repro.zero.placement import Mesh

BUDGETS_GB = (8, 32)
HIDDEN = 2048
HEADS = 16
BATCH = 1
MAX_SEARCH = 4096

TIME_MODEL = GPTConfig(n_layers=4, hidden=512, n_heads=8, vocab_size=50257, max_seq_len=1024)
TIME_BATCH = 4
TIME_SEQ = 1024
TIME_ND = 2
TIME_STEPS = 3  # last step is DPU steady state

#: the sweep's three placement reaches, deepest tier first in the story.
FIT_TIERS: tuple[tuple[str, InfinityConfig | None], ...] = (
    ("device only", None),
    ("+host DRAM", InfinityConfig(
        optimizer_tier="host", grad_tier="host", param_tier="host")),
    ("+host+NVMe", InfinityConfig(
        optimizer_tier="nvme", grad_tier="nvme", param_tier="nvme",
        tile_bytes=1 << 28)),
)


@dataclass(frozen=True)
class InfinityFitRow:
    label: str
    budget_gb: float
    psi_b: float  # max params (billions) this reach trains
    device_gb: float
    host_gb: float
    nvme_gb: float
    binding: str  # which capacity stopped growth ("device"/"host"/"nvme"/"search")


@dataclass(frozen=True)
class InfinityTimeRow:
    label: str
    stage: int
    config: InfinityConfig
    sim_step_s: float
    uniform_step_s: float
    rel_err: float


@dataclass(frozen=True)
class InfinitySweepResult:
    fit_rows: list[InfinityFitRow]
    time_rows: list[InfinityTimeRow]


def _fit_point(
    zero: ZeROConfig, n_layers: int, budget_bytes: float,
    host_cap: float, nvme_cap: float,
) -> tuple[bool, GPTConfig, float, dict[str, float], str]:
    cfg = GPTConfig(n_layers=n_layers, hidden=HIDDEN, n_heads=HEADS,
                    vocab_size=VOCAB, max_seq_len=SEQ_LEN)
    dev = device_bytes_for(cfg, zero, mesh=Mesh(), batch=BATCH)
    psi = float(cfg.total_params)
    if zero.infinity is not None:
        tiers = state_bytes_by_tier(
            psi, Mesh(), zero.placement, tile_bytes=zero.infinity.tile_bytes
        )
    else:
        tiers = {"device": dev, "host": 0.0, "nvme": 0.0}
    binding = "search"
    if dev > budget_bytes:
        binding = "device"
    elif tiers["host"] > host_cap:
        binding = "host"
    elif tiers["nvme"] > nvme_cap:
        binding = "nvme"
    return binding == "search", cfg, dev, tiers, binding


def run_fit(budgets_gb=BUDGETS_GB) -> list[InfinityFitRow]:
    """Single-GPU (stage 3) max trainable model per tier reach."""
    topo = ClusterTopology.for_world_size(1)
    host_cap = topo.host_bytes_per_gpu
    nvme_cap = topo.nvme_bytes_per_gpu
    rows = []
    for budget in budgets_gb:
        for label, inf in FIT_TIERS:
            zero = ZeROConfig(stage=3, infinity=inf)

            def fits(n: int) -> bool:
                return _fit_point(zero, n, budget * GB, host_cap, nvme_cap)[0]

            lo = max(_largest(fits, MAX_SEARCH), 1)
            _, cfg, dev, tiers, _ = _fit_point(
                zero, lo, budget * GB, host_cap, nvme_cap)
            # The capacity the *next* layer count trips is what binds.
            binding = _fit_point(zero, lo + 1, budget * GB, host_cap, nvme_cap)[4]
            rows.append(
                InfinityFitRow(
                    label=label, budget_gb=float(budget),
                    psi_b=float(cfg.total_params) / 1e9,
                    device_gb=dev / GB, host_gb=tiers["host"] / GB,
                    nvme_gb=tiers["nvme"] / GB, binding=binding,
                )
            )
    return rows


TIME_CASES: tuple[tuple[str, int, InfinityConfig], ...] = (
    ("s2 os@host (offload parity)", 2,
     InfinityConfig(optimizer_tier="host", grad_tier="host")),
    ("s2 os@nvme g@host paged opt", 2,
     InfinityConfig(optimizer_tier="nvme", grad_tier="host")),
    ("s3 all-state nvme", 3,
     InfinityConfig(optimizer_tier="nvme", grad_tier="nvme", param_tier="nvme")),
    ("s3 paged + tiled", 3,
     InfinityConfig(optimizer_tier="nvme", grad_tier="host", param_tier="nvme",
                    tile_bytes=1 << 20)),
    ("s3 all-state host", 3,
     InfinityConfig(optimizer_tier="host", grad_tier="host", param_tier="host")),
    ("s3 paged + DPU", 3,
     InfinityConfig(optimizer_tier="nvme", grad_tier="host", param_tier="nvme",
                    delayed_param_update=True)),
)


def run_time(cases: tuple[tuple[str, int, InfinityConfig], ...]) -> list[InfinityTimeRow]:
    """Meta-mode simulated step time vs the same schedule on uniform
    inputs, one row per ``(label, stage, InfinityConfig)`` case."""
    rows = []
    for label, stage, inf in cases:
        zero = ZeROConfig(stage=stage, memory_defrag=False, infinity=inf)
        ctx = virtual_rank_context(TIME_ND)
        engine, ids, targets = meta_engine(
            ctx, TIME_MODEL, zero, batch=TIME_BATCH, seq_len=TIME_SEQ,
        )
        for _ in range(TIME_STEPS):
            result = engine.train_step(ids, targets)
        sim = result.step_time_model_s
        runtime = engine.offload  # the InfinityEngine driving the clock
        inputs = StepInputs.uniform(
            TIME_MODEL, inf, batch=TIME_BATCH, seq_len=TIME_SEQ,
            checkpointing=zero.checkpoint_activations, numel=engine.part_numel,
            peak_flops=ctx.device.spec.peak_flops,
            grad_chunks=max(len(runtime.last_grad_pieces), 1), gathers=runtime.last_gathers,
        )
        uniform = steady_step(inputs, inf, runtime.pcie.link, runtime.nvme_stream.link).step_s
        rows.append(
            InfinityTimeRow(
                label=label, stage=stage, config=inf, sim_step_s=sim,
                uniform_step_s=uniform, rel_err=abs(uniform - sim) / sim,
            )
        )
    return rows


def run() -> InfinitySweepResult:
    return InfinitySweepResult(fit_rows=run_fit(), time_rows=run_time(TIME_CASES))


def render(result: InfinitySweepResult) -> str:
    fit = format_table(
        ["device budget", "tier reach", "max model", "device GB", "host GB",
         "NVMe GB", "bound by"],
        [
            [f"{r.budget_gb:.0f} GB", r.label, f"{r.psi_b:.2f}B",
             f"{r.device_gb:.1f}", f"{r.host_gb:.1f}", f"{r.nvme_gb:.1f}",
             r.binding]
            for r in result.fit_rows
        ],
        title="ZeRO-Infinity tiers — max trainable model, 1 GPU (stage 3)",
    )
    time = format_table(
        ["case", "stage", "placement", "sim step s", "uniform step s", "err %"],
        [
            [r.label, r.stage, r.config.label,
             f"{r.sim_step_s:.5f}", f"{r.uniform_step_s:.5f}",
             f"{100 * r.rel_err:.2f}"]
            for r in result.time_rows
        ],
        title="Infinity schedule, uniform pieces vs simulated timeline (meta engines)",
    )
    return fit + "\n\n" + time
