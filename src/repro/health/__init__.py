"""Fail-slow (gray-failure) defense: online straggler detection.

``HealthMonitor`` turns the telemetry layer's existing per-step spans and
priced communication events into per-rank health verdicts (healthy ->
suspect -> confirmed-slow) with hysteresis, and hands confirmed
stragglers to the Supervisor for eviction via the elastic
N->M re-shard path. See ``monitor`` for the detector math and
``docs/ARCHITECTURE.md`` section 12 for the end-to-end story.
"""

from repro.health.errors import SlowRankDetectedError
from repro.health.monitor import (
    CONFIRMED,
    HEALTHY,
    SUSPECT,
    VERDICT_CODES,
    HealthConfig,
    HealthMonitor,
    HealthTransition,
    RecoveryReport,
    verify_recovery,
)

__all__ = [
    "CONFIRMED",
    "HEALTHY",
    "SUSPECT",
    "VERDICT_CODES",
    "HealthConfig",
    "HealthMonitor",
    "HealthTransition",
    "RecoveryReport",
    "SlowRankDetectedError",
    "verify_recovery",
]
