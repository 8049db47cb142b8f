"""ZeRO-Offload over the simulator: host-resident fp32 Adam, streamed PCIe
gradient/parameter traffic, and one-step delayed parameter update.

The engines' numerics never change — offload moves *placement* (device ->
host) and adds a transfer timeline, which is why offloaded training is
bitwise identical to the all-device path when DPU is off.
"""

from repro.offload.cost_model import OffloadCostModel, OffloadStepPrediction, relative_error
from repro.offload.engine import OffloadConfig, OffloadRuntime, OffloadStepReport
from repro.offload.host_optim import (
    CPU_ADAM_ELEMENTS_PER_S,
    CPU_ADAM_LATENCY_S,
    cpu_adam_seconds,
)
from repro.offload.streams import PCIeStream, TransferHandle

__all__ = [
    "CPU_ADAM_ELEMENTS_PER_S",
    "CPU_ADAM_LATENCY_S",
    "OffloadConfig",
    "OffloadCostModel",
    "OffloadRuntime",
    "OffloadStepPrediction",
    "OffloadStepReport",
    "PCIeStream",
    "TransferHandle",
    "cpu_adam_seconds",
    "relative_error",
]
