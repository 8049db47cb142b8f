"""Parallel training baselines: DDP and GPipe (Megatron tensor MP is
``GPT2Model(mp_group=...)`` over ``repro.nn.layers``' parallel linears)."""

from repro.parallel.engine import BaseEngine, EngineConfig, StepResult
from repro.parallel.ddp import DDPEngine, GradBucketQueue
from repro.parallel.pipeline import GPipeEngine, split_units

__all__ = [
    "BaseEngine",
    "DDPEngine",
    "EngineConfig",
    "GPipeEngine",
    "GradBucketQueue",
    "StepResult",
    "split_units",
]
