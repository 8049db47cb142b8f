"""Parallel training baselines: the shared engine and DDP. Megatron tensor
MP is ``GPT2Model(mp_group=...)`` over ``repro.nn.layers``' parallel
linears, and a GPipe stage is ``GPT2Model(pp_group=...)`` under any engine."""

from repro.parallel.engine import BaseEngine, EngineConfig, StepResult
from repro.parallel.ddp import DDPEngine, GradBucketQueue

__all__ = [
    "BaseEngine",
    "DDPEngine",
    "EngineConfig",
    "GradBucketQueue",
    "StepResult",
]
