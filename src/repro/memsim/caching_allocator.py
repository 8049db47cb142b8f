"""PyTorch-style caching allocator on top of the raw block allocator.

torch.cuda keeps freed blocks *cached* (reserved) instead of returning them
to the driver, retrying after an ``empty_cache()`` flush when a fresh
cudaMalloc fails. Figure 7 of the paper reports "max cache allocated" —
this layer is what produces that number in our simulation
(``max_reserved_bytes``).

The cache is a best-fit pool kept as *size classes*: a dict from block size
to a stack of the cached blocks of exactly that size, plus the distinct
sizes in a sorted list. A training step asks for the same few sizes over
and over (8 classes serve 10.7k of a 100B meta step's 11.4k allocations),
so the common request is ``dict.get`` + ``list.pop`` and the common free is
``dict.get`` + ``list.append``; only a request no class matches exactly
bisects the sizes. Best fit picks the smallest cached block that is large
enough and, among equals, the most recently freed one (see
docs/ARCHITECTURE.md section 2 for why that is the order a single
size-sorted list with ``bisect_left`` inserts produced). A cached block
larger than the request is reused whole when the waste is small, or split
when large, mirroring the split behaviour of the CUDA caching allocator
closely enough for the paper's measurements (which are about
megabyte-to-gigabyte tensors, not sub-kilobyte noise).

A reused block goes to its next owner as the same ``Extent`` object the
backing allocator made for it; the owner's tag lives in a handle-keyed map
beside the live block. So an ``Extent`` is built once per block the device
carves, never per cache hit, and a steady step allocates nothing here.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

from repro.memsim.block_allocator import BlockAllocator, Extent, _tag_of
from repro.memsim.errors import InvalidFreeError

# A cached block may be reused un-split if the request wastes at most this
# fraction of it; otherwise prefer splitting / fresh allocation.
_REUSE_WASTE_LIMIT = 0.25
# Blocks at least this large are split on reuse instead of wasted.
_SPLIT_THRESHOLD = 1 << 20  # 1 MiB


@dataclass
class CachingStats:
    """Counters mirroring torch.cuda.memory_stats essentials."""

    allocated: int
    reserved: int
    max_allocated: int
    max_reserved: int
    n_cache_hits: int
    n_cache_misses: int
    n_flushes: int


class CachingAllocator:
    """Caching layer: ``alloc``/``free`` in user bytes, reserve in segments.

    * ``allocated_bytes`` — bytes in live user allocations.
    * ``reserved_bytes`` — bytes held from the underlying device (live +
      cached); this is torch's "reserved"/"cached" figure.
    """

    def __init__(self, backing: BlockAllocator):
        self.backing = backing
        self._align_mask = backing.alignment - 1
        # Cached (free but reserved) extents: size -> stack, newest on top.
        # ``_sizes`` holds every key of ``_classes`` in ascending order; a
        # class whose stack has emptied stays until a best-fit search walks
        # over it, so a size that is freed and re-requested every step never
        # leaves either structure.
        self._classes: dict[int, list[Extent]] = {}
        self._sizes: list[int] = []
        # Live blocks and their current owners' tags, keyed by handle. A
        # cache hit hands out the cached block itself; only the tag changes.
        self._live: dict[int, Extent] = {}
        self._tags: dict[int, str] = {}
        self._allocated = 0
        self._reserved = 0
        self.max_allocated = 0
        self.max_reserved = 0
        self.n_cache_hits = 0
        self.n_cache_misses = 0
        self.n_flushes = 0

    # -- queries ---------------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        return self._allocated

    @property
    def reserved_bytes(self) -> int:
        return self._reserved

    @property
    def cached_bytes(self) -> int:
        return self._reserved - self._allocated

    def stats(self) -> CachingStats:
        return CachingStats(
            allocated=self._allocated,
            reserved=self._reserved,
            max_allocated=self.max_allocated,
            max_reserved=self.max_reserved,
            n_cache_hits=self.n_cache_hits,
            n_cache_misses=self.n_cache_misses,
            n_flushes=self.n_flushes,
        )

    def reset_peak_stats(self) -> None:
        """Reset high-water marks (torch.cuda.reset_peak_memory_stats analog)."""
        self.max_allocated = self._allocated
        self.max_reserved = self._reserved

    def tag_of(self, extent: Extent) -> str:
        """The tag of the live allocation ``extent`` (its current owner's)."""
        return _tag_of(self._tags, extent, "caching allocator")

    def snapshot(self) -> dict:
        """JSON-serializable view: live blocks, cached segments, the gap.

        ``cached`` is the reserved-but-unallocated figure whose *peak* is
        Figure 7's cached/allocated gap; the memory observatory reads it
        from here rather than re-deriving it.
        """
        return {
            "allocator": "caching",
            "allocated": self._allocated,
            "reserved": self._reserved,
            "cached": self.cached_bytes,
            "max_allocated": self.max_allocated,
            "max_reserved": self.max_reserved,
            "n_cache_hits": self.n_cache_hits,
            "n_cache_misses": self.n_cache_misses,
            "n_flushes": self.n_flushes,
            "live_blocks": [
                {"handle": e.handle, "offset": e.offset, "size": e.size,
                 "tag": self._tags[e.handle]}
                for e in sorted(self._live.values(), key=lambda e: e.offset)
            ],
            "cached_segments": [
                {"handle": e.handle, "offset": e.offset, "size": e.size}
                for e in sorted(self._cached_blocks(), key=lambda e: e.offset)
            ],
            "backing": self.backing.snapshot(),
        }

    # -- allocate / free -------------------------------------------------

    def alloc(self, size: int, tag: str = "") -> Extent:
        """Allocate ``size`` bytes, preferring a cached block.

        When the device has no hole for a fresh block the cache is flushed
        and the allocation retried once — the CUDA caching allocator's
        fallback; the retry raises if it is a real OOM.
        """
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        mask = self._align_mask
        need = (int(size) + mask) & ~mask
        stack = self._classes.get(need)
        if stack:
            extent = stack.pop()
            self.n_cache_hits += 1
        else:
            extent = self._take_best_fit(need, tag)
            if extent is None:
                self.n_cache_misses += 1
                extent = self.backing.try_alloc(need, tag)
                if extent is None:
                    self._flush_cache()
                    extent = self.backing.alloc(need, tag)
                self._reserved += extent.size
                if self._reserved > self.max_reserved:
                    self.max_reserved = self._reserved
        self._live[extent.handle] = extent
        self._tags[extent.handle] = tag
        self._allocated = allocated = self._allocated + extent.size
        if allocated > self.max_allocated:
            self.max_allocated = allocated
        return extent

    def free(self, extent: Extent) -> None:
        """Release a user allocation into the cache (stays reserved)."""
        live = self._live.pop(extent.handle, None)
        if live is None:
            raise InvalidFreeError(
                f"caching allocator: handle {extent.handle} is not live (double free?)"
            )
        del self._tags[extent.handle]
        size = live.size
        self._allocated -= size
        stack = self._classes.get(size)
        if stack is None:
            stack = self._classes[size] = []
            insort(self._sizes, size)
        stack.append(live)

    def empty_cache(self) -> int:
        """Return all cached blocks to the device; returns bytes released."""
        return self._flush_cache()

    # -- internals ---------------------------------------------------------

    def _cached_blocks(self) -> list[Extent]:
        """Every cached block, smallest size first and newest first within
        a size."""
        return [b for size in self._sizes for b in reversed(self._classes[size])]

    def _take_best_fit(self, need: int, tag: str) -> Extent | None:
        """The request has no block of exactly its size: take the newest
        block of the smallest class that holds it, unless it fits poorly."""
        sizes, classes = self._sizes, self._classes
        i = bisect_left(sizes, need)
        while i < len(sizes) and not classes[sizes[i]]:
            del classes[sizes[i]]  # emptied class: forget it, look further up
            del sizes[i]
        if i == len(sizes):
            return None
        stack = classes[sizes[i]]
        block = stack[-1]
        waste = block.size - need
        if waste > block.size * _REUSE_WASTE_LIMIT and block.size < _SPLIT_THRESHOLD:
            # Small block, poor fit: leave it cached, force a fresh allocation.
            return None
        stack.pop()
        if waste >= self.backing.alignment and block.size >= _SPLIT_THRESHOLD:
            # Split: return the tail to the device, keep the head.
            self.backing.free(block)
            self._reserved -= block.size
            self.n_cache_misses += 1
            fresh = self.backing.alloc(need, tag)
            self._reserved += fresh.size
            return fresh
        self.n_cache_hits += 1
        return block

    def _flush_cache(self) -> int:
        released = 0
        for block in self._cached_blocks():
            self.backing.free(block)
            released += block.size
        self._reserved -= released
        self._classes.clear()
        self._sizes.clear()
        self.n_flushes += 1
        return released
