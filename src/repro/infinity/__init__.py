"""ZeRO-Infinity tier: NVMe offload hierarchy, overlap-centric prefetch
engine, and memory-centric tiling.

One device -> host -> NVMe hierarchy serves ZeRO-Offload (the placement
that stops at the host) and ZeRO-Infinity alike: the stack one GPU sees
(per-tier capacity + alpha-beta links) is ``repro.hardware`` truth,
``TierStream`` schedules full-duplex transfers per link, ``InfinityConfig`` assigns each
ZeRO state class (fp16 params, grads, fp32 optimizer state) to a tier,
``repro.infinity.schedule.evaluate_step`` lays one step's movement out
against compute, and ``InfinityEngine`` captures each step and keeps the
simulated clock. ``repro.infinity.tiling`` bounds a single operator's
device residency so one layer can be larger than the GPU.

Placement never changes numerics: training with any tier assignment is
bitwise identical to the all-device path (DPU remains the one deliberate,
contracted exception).
"""

from repro.infinity.config import InfinityConfig
from repro.infinity.engine import InfinityEngine, InfinityStepReport
from repro.infinity.schedule import OPT_STATE_BYTES_PER_ELEM
from repro.infinity.tiers import (
    TIER_NAMES,
    TierStream,
    TransferHandle,
    wire_seconds,
)
from repro.infinity.tiling import TilePlan, plan_unit_tiles

__all__ = [
    "InfinityConfig",
    "InfinityEngine",
    "InfinityStepReport",
    "OPT_STATE_BYTES_PER_ELEM",
    "TIER_NAMES",
    "TierStream",
    "TilePlan",
    "TransferHandle",
    "plan_unit_tiles",
    "wire_seconds",
]
