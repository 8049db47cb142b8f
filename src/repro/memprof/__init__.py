"""repro.memprof — the memory observatory over ``repro.memsim``.

PR 3's telemetry answered *where time goes*; this package answers *where
memory goes*: per-allocation provenance (ZeRO state class + site + engine
phase), allocator introspection (fragmentation ratio, cached/allocated gap
— Figure 7's quantity), a step-boundary leak sentinel, and structured OOM
postmortems with a capacity-vs-fragmentation verdict and an advisor hint
naming the ZeRO/Pa/CB/MD knob that would have saved the allocation.

Quickstart::

    from repro import memprof

    prof = memprof.MemoryProfiler(ctx.device)   # before building the model
    ... build engine, train ...
    print(memprof.device_stats(ctx.device).cached_bytes)
    print(prof.stats().live_by_category)
    prof.detach()

Zero-overhead contract: with no profiler attached, ``memprof.category``
returns a shared no-op singleton, ``set_phase`` is a counter check, and no
tracking state is ever allocated; allocator behaviour is byte-identical.
"""

from repro.memprof.postmortem import OOMReport, Workload, build_postmortem
from repro.memprof.profiler import MemoryProfiler
from repro.memprof.provenance import (
    CATEGORIES,
    category,
    classify_tag,
    current_phase,
    profiling_active,
    set_phase,
)
from repro.memprof.stats import (
    SNAPSHOT_SCHEMA,
    DeviceStats,
    MemprofStats,
    device_stats,
    fragmentation_ratio,
    validate_snapshot,
)

__all__ = [
    "CATEGORIES",
    "DeviceStats",
    "MemoryProfiler",
    "MemprofStats",
    "OOMReport",
    "SNAPSHOT_SCHEMA",
    "Workload",
    "build_postmortem",
    "category",
    "classify_tag",
    "current_phase",
    "device_stats",
    "fragmentation_ratio",
    "profiling_active",
    "set_phase",
    "validate_snapshot",
]
