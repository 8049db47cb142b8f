"""Simulated device memory: block + caching allocators, devices, host pool.

Reproduces the memory behaviours the paper measures — fragmentation OOM
(Section 3.2 / 6.3), cached memory (Figure 7) — without CUDA.
"""

from repro.memsim.block_allocator import AllocatorStats, BlockAllocator, Extent
from repro.memsim.caching_allocator import CachingAllocator, CachingStats
from repro.memsim.device import Device, HostMemory
from repro.memsim.errors import FragmentationError, InvalidFreeError, OutOfMemoryError
from repro.memsim.timeline import MemorySample, MemoryTimeline

__all__ = [
    "AllocatorStats",
    "BlockAllocator",
    "CachingAllocator",
    "CachingStats",
    "Device",
    "Extent",
    "FragmentationError",
    "HostMemory",
    "InvalidFreeError",
    "MemorySample",
    "MemoryTimeline",
    "OutOfMemoryError",
]
