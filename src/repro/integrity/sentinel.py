"""Anomaly sentinels: loss / gradient-norm spike windows.

Digests catch corruption of state the engine *owns*; they cannot catch a
bit flip that lands in a collective payload *before* the reduction — the
corrupted contribution is summed identically by every rank, so all
replicas agree on the wrong value and no cross-rank comparison can tell.
What such a flip does do is perturb the training signal, usually
violently (a high-exponent bit flip multiplies a gradient element by
2^k). The sentinels watch the two cheapest scalar summaries of that
signal — the loss and the global gradient norm — against a rolling
median, and flag values that exceed ``spike_factor`` x the window median.

Overflow vs corruption: the ``LossScaler`` already owns the inf/NaN
path — an overflowed step is *skipped* and the scale backs off; that is
normal mixed-precision behavior, not corruption. The sentinels therefore
observe **applied steps only**; a non-finite value on an applied step
(which the scaler's global overflow vote said was clean) or a spike far
outside the recent window is what distinguishes corruption from an
ordinary loss-scale event.

Both sentinels are deliberately conservative (large default factors, a
minimum history before judging) — a false positive costs a rollback.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

_TINY = float(np.finfo(np.float64).tiny)


class SpikeWindow:
    """Rolling-median spike detector over a scalar training signal."""

    def __init__(
        self, name: str, *, window: int = 16, min_history: int = 4,
        spike_factor: float = 1e3,
    ):
        if window < 1 or min_history < 1:
            raise ValueError("window and min_history must be >= 1")
        if spike_factor <= 1.0:
            raise ValueError(f"spike_factor must be > 1, got {spike_factor}")
        self.name = name
        self.min_history = min_history
        self.spike_factor = spike_factor
        self._history: deque[float] = deque(maxlen=window)

    def observe(self, value: float) -> str | None:
        """Feed one applied-step observation; returns an anomaly reason or
        ``None``. Anomalous values are *not* added to the window, so one
        outlier cannot drag the median up and mask the next."""
        value = float(value)
        if not math.isfinite(value):
            # The scaler's overflow vote said this step was clean, yet the
            # signal is non-finite: state (not gradients) is corrupt.
            return f"non-finite {self.name} ({value!r}) on an applied step"
        n = len(self._history)
        if n >= self.min_history:
            # np.median's float, without its array round trip: the middle
            # value, or the two middle values' sum halved.
            ordered = sorted(self._history)
            mid = n // 2
            median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
            threshold = self.spike_factor * max(median, _TINY)
            if value > threshold:
                return (
                    f"{self.name} spike: {value:.6g} > {self.spike_factor:g} x "
                    f"rolling median {median:.6g}"
                )
        self._history.append(value)
        return None
