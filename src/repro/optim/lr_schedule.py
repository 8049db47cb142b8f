"""Learning-rate schedules (warmup + decay) for the training engines.

Large-model training universally pairs Adam with linear warmup and a
polynomial/cosine decay (GPT-2, Megatron, Turing-NLG all do); engines
apply the schedule at every optimizer boundary via
``EngineConfig.lr_schedule``. Schedules are pure ``step -> lr`` functions
(1-based step), so they are trivially identical across ranks and stages —
the ZeRO equivalence guarantees extend to scheduled training unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class WarmupCosineDecay:
    """Linear warmup then cosine decay to ``min_lr`` at ``total_steps``."""

    peak_lr: float
    warmup_steps: int
    total_steps: int
    min_lr: float = 0.0

    def __post_init__(self):
        if self.warmup_steps < 0 or self.total_steps <= self.warmup_steps:
            raise ValueError(
                f"need 0 <= warmup_steps < total_steps, got "
                f"{self.warmup_steps} / {self.total_steps}"
            )
        if not 0 <= self.min_lr <= self.peak_lr:
            raise ValueError("need 0 <= min_lr <= peak_lr")

    def lr(self, step: int) -> float:
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        if self.warmup_steps and step <= self.warmup_steps:
            return self.peak_lr * step / self.warmup_steps
        if step >= self.total_steps:
            return self.min_lr
        frac = (step - self.warmup_steps) / (self.total_steps - self.warmup_steps)
        return self.min_lr + 0.5 * (self.peak_lr - self.min_lr) * (
            1.0 + math.cos(math.pi * frac)
        )
