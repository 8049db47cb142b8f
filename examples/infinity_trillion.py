"""ZeRO-Infinity: train past device memory by opening the host and NVMe tiers.

Usage:
    python examples/infinity_trillion.py

Two demonstrations, both allocator-verified:

1. The tier sweep — at a fixed device budget, the largest trainable model
   for each reach of the hierarchy (device only, +host DRAM, +host+NVMe).
   Opening the full hierarchy trains a model >= 10x larger than device
   memory alone allows, at the same device budget.

2. One simulated training step of a ~10B-parameter model on a SINGLE
   32 GB GPU: fp32 optimizer state and fp16 parameter shards on NVMe,
   gradient shard in host DRAM, parameters paged in per unit gather with
   memory-centric tiling. Every byte passes through the pools, every
   transfer lands on the tier streams' clock, and the same tier schedule
   on uniform pieces (the inputs the closed forms assume) lands next to
   the simulated step time.
"""

import time

import numpy as np

from repro.experiments.infinity_sweep import run_fit
from repro.infinity.config import InfinityConfig
from repro.infinity.schedule import StepInputs, steady_step
from repro.nn.transformer import GPTConfig
from repro.runtime import virtual_rank_context
from repro.tensor.tensor import Tensor
from repro.utils.tables import format_table
from repro.utils.units import bytes_to_str
from repro.zero.config import ZeROConfig
from repro.zero.factory import build_model_and_engine

# ~9.9B parameters: far beyond a 32 GB card's model states (16 Psi = 158 GB).
CONFIG = GPTConfig(n_layers=48, hidden=4096, n_heads=32)
BATCH, SEQ = 1, 1024

PLACEMENT = InfinityConfig(
    optimizer_tier="nvme", grad_tier="host", param_tier="nvme",
    tile_bytes=1 << 28,  # one unit never holds more than 256 MB device-side
)


def main():
    print("-- tier sweep: max trainable model at a fixed device budget --\n")
    fit_rows = run_fit()
    print(format_table(
        ["device budget", "tier reach", "max model", "device GB", "host GB",
         "NVMe GB", "bound by"],
        [
            [f"{r.budget_gb:.0f} GB", r.label, f"{r.psi_b:.2f}B",
             f"{r.device_gb:.1f}", f"{r.host_gb:.1f}", f"{r.nvme_gb:.1f}",
             r.binding]
            for r in fit_rows
        ],
        title="ZeRO-Infinity tiers — max trainable model, 1 GPU (stage 3)",
    ))

    psi = CONFIG.total_params
    print(f"\n-- one step of a {psi / 1e9:.1f}B model on one 32 GB GPU --")
    print(f"placement: {PLACEMENT.label}\n")

    ctx = virtual_rank_context(1)
    zero = ZeROConfig(stage=3, memory_defrag=False, infinity=PLACEMENT)
    t0 = time.time()
    model, engine = build_model_and_engine(ctx, CONFIG, zero, dp_group=ctx.world, meta=True)
    ids = Tensor.meta((BATCH, SEQ), np.int64, device=ctx.device)
    targets = Tensor.meta((BATCH, SEQ), np.int64, device=ctx.device)
    result = engine.train_step(ids, targets)
    elapsed = time.time() - t0

    print(f"simulated in {elapsed:.1f}s wall clock")
    print(f"  device peak:      {bytes_to_str(ctx.device.max_allocated_bytes)}"
          f"  (32 GB card — IT FITS)")
    print(f"  host DRAM shard:  {bytes_to_str(ctx.host.allocated_bytes)}")
    print(f"  NVMe shards:      {bytes_to_str(ctx.nvme.allocated_bytes)}")

    runtime = engine.offload  # the InfinityEngine driving the tier clock
    inputs = StepInputs.uniform(
        CONFIG, PLACEMENT, batch=BATCH, seq_len=SEQ,
        checkpointing=zero.checkpoint_activations, numel=engine.part_numel,
        peak_flops=ctx.device.spec.peak_flops,
        grad_chunks=max(len(runtime.last_grad_pieces), 1), gathers=runtime.last_gathers,
    )
    uniform = steady_step(inputs, PLACEMENT, runtime.pcie.link, runtime.nvme_stream.link)
    err = abs(uniform.step_s - result.step_time_model_s) / result.step_time_model_s
    print(f"\n  modeled step time: {result.step_time_model_s:.2f}s simulated, "
          f"{uniform.step_s:.2f}s on uniform pieces ({100 * err:.1f}% apart)")
    print("\nA single layer, a single GPU, a memory hierarchy: the model-state")
    print("wall moves from device HBM to the NVMe array.")


if __name__ == "__main__":
    main()
