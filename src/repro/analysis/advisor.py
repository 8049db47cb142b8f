"""Configuration advisor: "if and when to apply Pa and Pa+cpu" (Section 8),
plus choosing the lightest ZeRO stage that fits.

The paper closes Section 8 with: "Given model and hardware characteristics,
we leverage the above analysis to decide if and when to apply Pa and
Pa+cpu", and Section 10.5 notes Pa+cpu "is turned on only when it is
beneficial". This module is that decision procedure, built from the memory
model (max batch per variant) and the performance model (throughput per
variant):

* Pa goes on when the model is model-parallel and the larger batch it
  unlocks raises modelled throughput by more than its <10% MP-traffic cost;
* Pa+cpu goes on only when the model cannot run (or only runs with a
  throughput-crippling batch) without it;
* the recommended stage is the *lightest* partitioning that fits — ZeRO's
  "no cost you don't need" philosophy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.max_model import DEFAULT_BUDGET_BYTES, max_batch
from repro.analysis.perf_model import PerfModel
from repro.nn.transformer import GPTConfig
from repro.zero.config import ZeROConfig
from repro.zero.placement import Mesh

BATCH_CAP = 64  # the largest per-replica batch a variant is credited with


@dataclass(frozen=True)
class VariantEstimate:
    """One (Pa, Pa+cpu) variant's feasibility and modelled speed."""

    label: str
    config: ZeROConfig
    max_batch: int
    tflops_per_gpu: float

    @property
    def feasible(self) -> bool:
        return self.max_batch > 0


@dataclass(frozen=True)
class Advice:
    config: ZeROConfig
    batch: int
    tflops_per_gpu: float
    variants: tuple[VariantEstimate, ...]
    reason: str


def _estimate(
    label: str,
    zero: ZeROConfig,
    model: GPTConfig,
    *,
    mesh: Mesh,
    budget_bytes: float,
    perf: PerfModel,
) -> VariantEstimate:
    b = min(max_batch(model, zero, mesh=mesh, budget_bytes=budget_bytes), BATCH_CAP)
    if b == 0:
        return VariantEstimate(label, zero, 0, 0.0)
    est = perf.estimate(model, zero, mesh=mesh, batch=b)
    return VariantEstimate(label, zero, b, est.tflops_per_gpu)


def advise_activation_strategy(
    model: GPTConfig,
    *,
    mesh: Mesh,
    stage: int = 2,
    budget_bytes: float = DEFAULT_BUDGET_BYTES,
) -> Advice:
    """Decide Pa / Pa+cpu for a fixed ZeRO stage (the Section 8 question)."""
    perf = PerfModel()
    base = ZeROConfig(stage=stage)
    candidates = [("no-Pa", base)]
    if mesh.mp > 1:  # Pa needs an MP group to partition over
        pa = replace(base, partition_activations=True)
        candidates += [("Pa", pa), ("Pa+cpu", replace(pa, cpu_offload_activations=True))]
    variants = [
        _estimate(label, zero, model, mesh=mesh, budget_bytes=budget_bytes, perf=perf)
        for label, zero in candidates
    ]
    feasible = [v for v in variants if v.feasible]
    if not feasible:
        return Advice(
            config=variants[-1].config, batch=0, tflops_per_gpu=0.0,
            variants=tuple(variants),
            reason="model does not fit under any activation strategy at this scale",
        )
    best = max(feasible, key=lambda v: v.tflops_per_gpu)
    if best.label == "Pa+cpu" and any(v.feasible and v.label != "Pa+cpu" for v in variants):
        reason = "Pa+cpu wins: the batch it unlocks outweighs its PCIe traffic"
    elif best.label == "Pa+cpu":
        reason = "Pa+cpu required: the model cannot run without offloading checkpoints"
    elif best.label == "Pa":
        reason = "Pa wins: the 1/Nm checkpoint footprint buys a larger batch for <10% MP traffic"
    else:
        reason = "plain checkpointing suffices: Pa's extra all-gather buys nothing here"
    return Advice(
        config=best.config, batch=best.max_batch,
        tflops_per_gpu=best.tflops_per_gpu, variants=tuple(variants), reason=reason,
    )


def recommend_zero_config(
    model: GPTConfig,
    *,
    mesh: Mesh,
    budget_bytes: float = DEFAULT_BUDGET_BYTES,
) -> Advice:
    """Lightest ZeRO stage (plus Pa decision) that trains this model.

    Walks stages 0 -> 3; within each stage applies the Section 8 activation
    decision; returns the first stage whose best variant fits at all.
    """
    last = None
    for stage in (0, 1, 2, 3):
        advice = advise_activation_strategy(
            model, mesh=mesh, stage=stage, budget_bytes=budget_bytes,
        )
        last = advice
        if advice.batch > 0:
            return advice
    assert last is not None
    return last
