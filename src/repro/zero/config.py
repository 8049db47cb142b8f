"""ZeRO configuration: stages + ZeRO-R switches, with Table 3's C1-C5 presets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.zero.placement import Placed, state_placement

if TYPE_CHECKING:
    from repro.infinity.config import InfinityConfig

#: CB's fused buffer: 4M fp32 elements (16 MB)
CONSTANT_BUFFER_NUMEL = 1 << 22


#: the paper's name for each ZeRO-DP stage
STAGE_NAMES = {0: "baseline", 1: "Pos", 2: "Pos+g", 3: "Pos+g+p"}


@dataclass(frozen=True)
class ZeROConfig:
    """Which ZeRO optimizations are on (paper Sections 5 and 6).

    stage: 0 = baseline DDP, 1 = Pos, 2 = Pos+g, 3 = Pos+g+p.
    """

    stage: int = 0
    partition_activations: bool = False  # Pa (requires checkpointing + MP group)
    cpu_offload_activations: bool = False  # Pa+cpu (implies Pa)
    constant_buffers: bool = True  # CB (a CONSTANT_BUFFER_NUMEL buffer)
    memory_defrag: bool = True  # MD
    checkpoint_activations: bool = True
    # SDC defense (repro.integrity): run the cross-rank replicated-state
    # audit every N optimizer steps, plus the per-boundary shard-digest
    # guard and the loss/grad-norm sentinels. 0 (the default) disables
    # the integrity layer entirely — no digests, no audit collectives,
    # no allocations, byte-identical to a build without it.
    audit_cadence: int = 0
    # ZeRO-Infinity (repro.infinity): place each state class (fp16 params,
    # grads, fp32 optimizer state) on a device/host/NVMe tier, with paged
    # stage-3 gathers and memory-centric tiling. ZeRO-Offload is its
    # host-only case: InfinityConfig(optimizer_tier="host", grad_tier=
    # "device" or "host", param_tier="device"), optionally with the
    # one-step delayed parameter update. None keeps every state on the
    # device.
    infinity: "InfinityConfig | None" = None

    def __post_init__(self):
        if self.audit_cadence < 0:
            raise ValueError(
                f"audit_cadence must be >= 0, got {self.audit_cadence}"
            )
        # The one placement rule: a state class may leave the device only
        # if it is partitioned — by this stage, or by Pa for Pa+cpu.
        self.placement

    @property
    def placement(self) -> dict[str, Placed]:
        """The four rows of ``repro.zero.placement`` this config resolves
        to — what the factory, the stores and ``repro.analysis`` read."""
        activation_tier = "host" if self.cpu_offload_activations else "device"
        return state_placement(
            self.stage, self.infinity, Placed(self.partition_activations, activation_tier)
        )

    @property
    def label(self) -> str:
        stage_name = STAGE_NAMES[self.stage]
        extras = []
        if self.constant_buffers:
            extras.append("CB")
        if self.memory_defrag:
            extras.append("MD")
        if self.partition_activations:
            extras.append("Pa+cpu" if self.cpu_offload_activations else "Pa")
        if self.audit_cadence:
            extras.append(f"SDC@{self.audit_cadence}")
        if self.infinity is not None:
            extras.append(self.infinity.label)
        return stage_name + (" + " + "+".join(extras) if extras else "")


# Table 3's evaluated configurations C1-C5 (all include CB + MD).
C1 = ZeROConfig(stage=1)
C2 = ZeROConfig(stage=1, partition_activations=True)
C3 = ZeROConfig(stage=2)
C4 = ZeROConfig(stage=2, partition_activations=True)
C5 = ZeROConfig(stage=2, partition_activations=True, cpu_offload_activations=True)

PAPER_CONFIGS = {"C1": C1, "C2": C2, "C3": C3, "C4": C4, "C5": C5}
