"""Fail-slow detection errors.

Kept import-light (no telemetry / comm dependencies) so the Supervisor
and the health monitor can share them without cycles.
"""

from __future__ import annotations


class SlowRankDetectedError(RuntimeError):
    """A rank was confirmed slow by the HealthMonitor.

    Raised from the telemetry step hook of whichever rank thread
    completed the confirming detector row — the *victim* is ``rank``,
    which is not necessarily the raising thread. The Supervisor treats this like a rank death: evict
    the victim, re-form the world at N-1 via checkpoint re-sharding, and
    resume.
    """

    def __init__(self, rank: int, *, step: int, slowdown: float, cause: str = "compute"):
        super().__init__(
            f"rank {rank} confirmed slow at detector step {step}: "
            f"{slowdown:.2f}x median step time ({cause}-bound)"
        )
        self.rank = rank
        #: detector row (1-based step index within the current attempt)
        self.step = step
        #: smoothed step-time ratio vs the healthy-world median at confirm
        self.slowdown = slowdown
        #: "compute" (throttle/jitter symptom) or "link" (elevated s/byte)
        self.cause = cause
