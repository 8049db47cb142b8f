"""Loss scaling for mixed-precision training (Micikevicius et al. [23]).

fp16 gradients underflow for small values; scaling the loss by S before
backward shifts gradients into fp16's representable range, and the
optimizer divides by S before the update. Dynamic scaling doubles S after
a window of clean steps and halves it (skipping the step) on inf/NaN —
the standard AMP recipe the paper's mixed-precision setup relies on.
"""

from __future__ import annotations

import numpy as np

GROWTH_FACTOR = 2.0  # the dynamic scale's step up after a clean window
BACKOFF_FACTOR = 0.5  # and down on an overflow
GROWTH_INTERVAL = 200  # clean steps in that window
MIN_SCALE = 1.0  # the dynamic scale's bounds
MAX_SCALE = 2.0**24


class LossScaler:
    """Static or dynamic loss scaler."""

    def __init__(self, init_scale: float = 2.0**15, *, dynamic: bool = True):
        if init_scale <= 0:
            raise ValueError(f"scale must be positive, got {init_scale}")
        self.scale = float(init_scale)
        self.dynamic = dynamic
        self.good_steps = 0
        self.n_skipped = 0

    @staticmethod
    def has_overflow(grad: np.ndarray) -> bool:
        return not bool(np.isfinite(grad).all())

    def update(self, overflow: bool) -> bool:
        """Advance scaler state; returns True if the step should be applied.

        With static scaling an overflow still skips the step (applying a
        non-finite update would be wrong) but the scale stays fixed.
        """
        if overflow:
            self.n_skipped += 1
            self.good_steps = 0
            if self.dynamic:
                self.scale = max(self.scale * BACKOFF_FACTOR, MIN_SCALE)
            return False
        if self.dynamic:
            self.good_steps += 1
            if self.good_steps >= GROWTH_INTERVAL:
                self.scale = min(self.scale * GROWTH_FACTOR, MAX_SCALE)
                self.good_steps = 0
        return True
