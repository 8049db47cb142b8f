"""ZeRO-Offload is the host-only placement of ``repro.infinity``:
``ZeROConfig(offload_*=...)`` spells an ``InfinityConfig`` that stops at the
host tier, and one runtime, schedule and cost model serve both. What is
left here is the host Adam's cost (``host_optim``) and ``engine``, a stub
hostbench's probe resolves by name — not imported here, since
``repro.infinity`` imports this package.
"""

from repro.offload.host_optim import (
    CPU_ADAM_ELEMENTS_PER_S,
    CPU_ADAM_LATENCY_S,
    cpu_adam_seconds,
)

__all__ = ["CPU_ADAM_ELEMENTS_PER_S", "CPU_ADAM_LATENCY_S", "cpu_adam_seconds"]
