"""Derived memory metrics: fragmentation, cached/allocated gap, peaks.

Two surfaces:

* ``device_stats(device)`` — works on any bare ``Device``, no profiler
  needed. This is what the Figure-7 benchmark and the MD ablation read:
  external-fragmentation ratio, largest free block, and the
  cached-vs-allocated gap (reserved − allocated, whose peak is exactly the
  "max cache allocated" vs "max allocated" gap the paper's Figure 7
  reports).
* ``compute_stats(profiler)`` / ``build_snapshot(profiler)`` — add the
  provenance dimension: per-category live/peak bytes, untracked baseline,
  top allocations, leak suspects, all JSON-serializable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.memprof.provenance import CATEGORIES

SNAPSHOT_SCHEMA = "repro.memprof/snapshot-v1"


@dataclass(frozen=True)
class DeviceStats:
    """Allocator-level view of one device (no provenance required)."""

    capacity: int
    allocated_bytes: int
    reserved_bytes: int
    cached_bytes: int  # reserved - allocated: Fig. 7's gap, instantaneous
    max_allocated_bytes: int
    max_reserved_bytes: int
    largest_free_block: int
    external_fragmentation: float
    n_free_segments: int
    md_region_bytes: int
    md_used_bytes: int


def device_stats(device) -> DeviceStats:
    """Allocator introspection for a ``memsim.Device`` (profiler optional)."""
    raw_stats = device.raw.stats()
    return DeviceStats(
        capacity=device.spec.memory_bytes,
        allocated_bytes=device.allocated_bytes,
        reserved_bytes=device.reserved_bytes,
        cached_bytes=device.reserved_bytes - device.allocated_bytes,
        max_allocated_bytes=device.max_allocated_bytes,
        max_reserved_bytes=device.max_reserved_bytes,
        largest_free_block=raw_stats.largest_free,
        external_fragmentation=raw_stats.external_fragmentation,
        n_free_segments=raw_stats.n_free_blocks,
        md_region_bytes=device.md_region_bytes,
        md_used_bytes=(
            device._md_allocator.allocated_bytes if device._md_allocator else 0
        ),
    )


def fragmentation_ratio(device) -> float:
    """External fragmentation of the raw heap: 1 − largest_free/free.

    0.0 on an empty (or full) device — one hole is no fragmentation.
    """
    return device.raw.stats().external_fragmentation


@dataclass(frozen=True)
class MemprofStats:
    """Provenance-enriched stats for one profiled pool."""

    pool: str
    device: DeviceStats | None
    live_by_category: dict[str, int] = field(default_factory=dict)
    peak_by_category: dict[str, int] = field(default_factory=dict)
    md_live_by_category: dict[str, int] = field(default_factory=dict)
    untracked_bytes: int = 0
    n_events: int = 0
    leak_suspects: tuple[str, ...] = ()


def compute_stats(profiler) -> MemprofStats:
    dev = device_stats(profiler.device) if profiler._is_device else None
    return MemprofStats(
        pool=profiler.pool_name,
        device=dev,
        live_by_category=dict(profiler.live_by_category),
        peak_by_category=dict(profiler.peak_by_category),
        md_live_by_category=dict(profiler.md_live_by_category),
        untracked_bytes=profiler.untracked_bytes,
        n_events=profiler.n_events,
        leak_suspects=tuple(profiler.leak_suspects()),
    )


def build_snapshot(profiler) -> dict:
    """JSON-serializable observatory snapshot (schema ``SNAPSHOT_SCHEMA``),
    listing the 20 largest live allocations."""
    stats = compute_stats(profiler)
    snap = {
        "schema": SNAPSHOT_SCHEMA,
        "pool": stats.pool,
        "device": asdict(stats.device) if stats.device else None,
        "categories": {
            c: {
                "live_bytes": stats.live_by_category.get(c, 0),
                "md_live_bytes": stats.md_live_by_category.get(c, 0),
                "peak_bytes": stats.peak_by_category.get(c, 0),
            }
            for c in CATEGORIES
        },
        "untracked_bytes": stats.untracked_bytes,
        "n_events": stats.n_events,
        "top_allocations": profiler.live_blocks()[:20],
        "leak_suspects": list(stats.leak_suspects),
    }
    if profiler._is_device:
        snap["allocator"] = profiler.device.snapshot()
    return snap


def validate_snapshot(snap: dict) -> None:
    """Assert the snapshot matches the v1 schema (benchmark/CI smoke)."""
    if snap.get("schema") != SNAPSHOT_SCHEMA:
        raise AssertionError(f"bad snapshot schema: {snap.get('schema')!r}")
    for key in ("pool", "categories", "untracked_bytes", "n_events",
                "top_allocations", "leak_suspects"):
        if key not in snap:
            raise AssertionError(f"snapshot missing key {key!r}")
    for c in CATEGORIES:
        entry = snap["categories"].get(c)
        if entry is None:
            raise AssertionError(f"snapshot missing category {c!r}")
        for field_name in ("live_bytes", "md_live_bytes", "peak_bytes"):
            if not isinstance(entry.get(field_name), int):
                raise AssertionError(f"category {c}.{field_name} must be an int")
    for row in snap["top_allocations"]:
        for field_name in ("bytes", "tag", "site", "category", "phase", "pool"):
            if field_name not in row:
                raise AssertionError(f"top_allocations row missing {field_name!r}")
        if row["category"] not in CATEGORIES:
            raise AssertionError(f"unknown category {row['category']!r} in snapshot")
