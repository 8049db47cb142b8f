"""Simulate one rank of the paper's flagship run: 100B parameters,
400 GPUs, 16-way model parallelism, ZeRO-100B (Pos+g + Pa, config C4).

Usage:
    python examples/scale_100b_simulation.py

Meta-mode execution: no numeric data exists anywhere, yet every allocation
hits the simulated 32 GB V100 allocator and every collective lands in the
communication ledger, so the run reports the exact per-rank memory and
traffic the real job would see — in well under a second.
"""

import time

import numpy as np

from repro.analysis.perf_model import PerfModel
from repro.configs import TABLE5_FIGURE2
from repro.experiments.common import virtual_groups
from repro.runtime import virtual_rank_context
from repro.tensor.tensor import Tensor
from repro.utils.units import GB, bytes_to_str
from repro.zero import build_model_and_engine
from repro.zero.config import C4


def main():
    point = next(p for p in TABLE5_FIGURE2 if p.label == "100B" and p.system == "zero")
    print(f"model: {point.label} ({point.model.total_params/1e9:.1f}B params, "
          f"{point.layers} layers x {point.hidden} hidden)")
    print(f"layout: {point.n_gpus} GPUs = {point.mp}-way MP x {point.mesh.dp}-way DP, "
          f"batch {point.batch}/replica\n")

    ctx = virtual_rank_context(point.n_gpus)
    dp_group, mp_group = virtual_groups(ctx, point.n_gpus, point.mp)

    t0 = time.time()
    model, engine = build_model_and_engine(
        ctx, point.model, C4, dp_group=dp_group, mp_group=mp_group,
        meta=True, md_region_bytes=int(2 * GB),
    )
    ids = Tensor.meta((point.batch, 1024), np.int64, device=ctx.device)
    targets = Tensor.meta((point.batch, 1024), np.int64, device=ctx.device)
    ctx.ledger.clear()
    engine.train_step(ids, targets)
    elapsed = time.time() - t0

    print(f"one meta-mode training step simulated in {elapsed:.2f}s\n")
    print("-- memory (per GPU, 32 GB budget) --")
    print(f"  peak allocated: {bytes_to_str(ctx.device.max_allocated_bytes)}")
    print(f"  max cached (reserved): {bytes_to_str(ctx.device.max_reserved_bytes)}")
    print(f"  fp16 param bytes alone: {bytes_to_str(point.model.total_params / point.mp * 2)}")
    print("\n-- communication per step (this rank) --")
    buckets = {"MP all-reduces (Megatron f/g)": 0.0, "Pa checkpoint all-gathers": 0.0,
               "DP gradient reduce": 0.0, "DP parameter all-gather": 0.0, "other": 0.0}
    for phase, volume in ctx.ledger.by_phase().items():
        if "allreduce" in phase:
            buckets["MP all-reduces (Megatron f/g)"] += volume
        elif phase == "activation-gather":
            buckets["Pa checkpoint all-gathers"] += volume
        elif phase == "grad-reduce":
            buckets["DP gradient reduce"] += volume
        elif phase == "param-allgather":
            buckets["DP parameter all-gather"] += volume
        else:
            buckets["other"] += volume
    for label, volume in buckets.items():
        if volume > 0:
            print(f"  {label:<32} {bytes_to_str(volume)}")

    pm = PerfModel()
    est = pm.estimate(point.model, C4, mesh=point.mesh, batch=point.batch)
    print("\n-- modelled throughput (calibrated alpha-beta + GEMM model) --")
    print(f"  compute {est.compute_s:.1f}s + MP comm {est.mp_comm_s:.1f}s + "
          f"DP comm {est.dp_comm_s:.1f}s per step")
    print(f"  => {est.tflops_per_gpu:.1f} TFlops/GPU, "
          f"{est.tflops_per_gpu * point.n_gpus / 1000:.1f} PFlops aggregate")
    print("  (paper Section 10.2: ~38-40 TFlops/GPU, 15 PFlops sustained)")


if __name__ == "__main__":
    main()
