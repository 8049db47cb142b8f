"""First-fit block allocator over a contiguous simulated address space.

This is the "raw device memory" layer (cudaMalloc analog). It hands out
contiguous [offset, offset+size) extents, splits blocks on allocation and
coalesces neighbours on free. Because extents are real intervals, the
allocator reproduces fragmentation faithfully: interleaved lifetimes of
short- and long-lived tensors (Section 6.3) leave free holes that cannot
serve a large request even when total free memory is ample.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from repro.memsim.errors import FragmentationError, InvalidFreeError, OutOfMemoryError

#: every allocation's granularity, in bytes: the CUDA caching allocator's
#: minimum block size
ALIGNMENT = 512
ALIGN_MASK = ALIGNMENT - 1


class Extent(NamedTuple):
    """A pool's block: a contiguous byte range and the pool that owns it.

    ``pool`` marks which allocator owns it when a device routes long-lived
    tensors into a defragmentation region (ZeRO-R MD): "main" or "md".

    Immutable, and made once per block the backing allocator carves: a
    cache hit hands the cached block itself to its next owner. The owner's
    tag is not on the record; the pool keeps it beside the live block
    (``tag_of``), so reusing a block builds nothing.
    """

    handle: int
    offset: int
    size: int
    pool: str = "main"

    @property
    def end(self) -> int:
        return self.offset + self.size


def _tag_of(tags: dict[int, str], extent: Extent, pool_name: str) -> str:
    try:
        return tags[extent.handle]
    except KeyError:
        raise InvalidFreeError(
            f"{pool_name}: extent handle {extent.handle} is not live"
        ) from None


@dataclass
class _FreeBlock:
    offset: int
    size: int

    @property
    def end(self) -> int:
        return self.offset + self.size


@dataclass
class AllocatorStats:
    """Point-in-time view of the allocator's occupancy."""

    capacity: int
    allocated: int
    free: int
    largest_free: int
    n_live: int
    n_free_blocks: int

    @property
    def external_fragmentation(self) -> float:
        """1 - largest_free/free: 0 when free space is one hole, ->1 when shattered."""
        if self.free == 0:
            return 0.0
        return 1.0 - self.largest_free / self.free


class BlockAllocator:
    """First-fit allocator with split-on-alloc and coalesce-on-free.

    Alignment: every allocation is rounded up to ``ALIGNMENT`` bytes.
    ``pool`` is the name stamped on every extent this allocator hands out.
    """

    def __init__(self, capacity: int, *, name: str = "gpu", pool: str = "main"):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.name = name
        self.pool = pool
        # Free list kept sorted by offset; live extents and their owners'
        # tags keyed by handle.
        self._free: list[_FreeBlock] = [_FreeBlock(0, self.capacity)]
        self._live: dict[int, Extent] = {}
        self._tags: dict[int, str] = {}
        self._handle_counter = itertools.count(1)
        self._allocated = 0

    # -- queries ---------------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        return self._allocated

    @property
    def free_bytes(self) -> int:
        return self.capacity - self._allocated

    @property
    def largest_free_block(self) -> int:
        return max((b.size for b in self._free), default=0)

    def stats(self) -> AllocatorStats:
        return AllocatorStats(
            capacity=self.capacity,
            allocated=self._allocated,
            free=self.free_bytes,
            largest_free=self.largest_free_block,
            n_live=len(self._live),
            n_free_blocks=len(self._free),
        )

    def live_extents(self) -> list[Extent]:
        """Live allocations sorted by offset (for invariant checking)."""
        return sorted(self._live.values(), key=lambda e: e.offset)

    def tag_of(self, extent: Extent) -> str:
        """The tag the live ``extent`` was allocated under."""
        return _tag_of(self._tags, extent, self.name)

    def free_segments(self) -> list[tuple[int, int]]:
        """Free holes as ``(offset, size)`` pairs sorted by offset."""
        return [(b.offset, b.size) for b in self._free]

    def snapshot(self) -> dict:
        """JSON-serializable point-in-time view: live blocks + free holes.

        This is the introspection surface the memory observatory
        (``repro.memprof``) builds its fragmentation metrics and OOM
        postmortems on — the simulated analog of
        ``torch.cuda.memory_snapshot()``.
        """
        stats = self.stats()
        return {
            "allocator": "block",
            "name": self.name,
            "capacity": self.capacity,
            "allocated": stats.allocated,
            "free": stats.free,
            "largest_free": stats.largest_free,
            "external_fragmentation": stats.external_fragmentation,
            "live_blocks": [
                {"handle": e.handle, "offset": e.offset, "size": e.size,
                 "tag": self._tags[e.handle]}
                for e in self.live_extents()
            ],
            "free_segments": [
                {"offset": off, "size": size} for off, size in self.free_segments()
            ],
        }

    def aligned(self, size: int) -> int:
        """Size after alignment rounding (what an allocation actually consumes)."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        return (int(size) + ALIGN_MASK) & ~ALIGN_MASK

    # -- allocate / free -------------------------------------------------

    def try_alloc(self, size: int, tag: str = "") -> Extent | None:
        """Allocate ``size`` bytes (rounded to alignment) from the first
        free block that holds them; ``None`` when no block does. For
        callers with somewhere else to go — a full MD region falls through
        to the general heap, a full device flushes its cache first."""
        need = self.aligned(size)
        for i, block in enumerate(self._free):
            if block.size >= need:
                extent = Extent(next(self._handle_counter), block.offset, need, self.pool)
                if block.size == need:
                    del self._free[i]
                else:
                    block.offset += need
                    block.size -= need
                self._live[extent.handle] = extent
                self._tags[extent.handle] = tag
                self._allocated += need
                return extent
        return None

    def alloc(self, size: int, tag: str = "") -> Extent:
        """``try_alloc`` that raises instead: FragmentationError when total
        free space would suffice but no contiguous hole does,
        OutOfMemoryError when capacity is exhausted.
        """
        extent = self.try_alloc(size, tag)
        if extent is None:
            need = self.aligned(size)
            cls = FragmentationError if self.free_bytes >= need else OutOfMemoryError
            raise cls(need, self.free_bytes, self.largest_free_block, self.name)
        return extent

    def free(self, extent: Extent) -> None:
        """Return an extent, coalescing with adjacent free blocks."""
        live = self._live.pop(extent.handle, None)
        if live is None:
            raise InvalidFreeError(
                f"{self.name}: extent handle {extent.handle} is not live (double free?)"
            )
        del self._tags[extent.handle]
        self._allocated -= live.size
        self._insert_free(_FreeBlock(live.offset, live.size))

    def _insert_free(self, block: _FreeBlock) -> None:
        # Binary search for insertion point in the offset-sorted free list.
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid].offset < block.offset:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, block)
        # Coalesce with successor then predecessor.
        if lo + 1 < len(self._free) and block.end == self._free[lo + 1].offset:
            block.size += self._free[lo + 1].size
            del self._free[lo + 1]
        if lo > 0 and self._free[lo - 1].end == block.offset:
            self._free[lo - 1].size += block.size
            del self._free[lo]

    def check_invariants(self) -> None:
        """Assert no overlap, full coverage, and coalesced free list."""
        regions = [(e.offset, e.end, "live") for e in self._live.values()]
        regions += [(b.offset, b.end, "free") for b in self._free]
        regions.sort()
        cursor = 0
        prev_kind = None
        for start, end, kind in regions:
            if start != cursor:
                raise AssertionError(
                    f"{self.name}: gap/overlap at {cursor}..{start} in region map"
                )
            if kind == "free" and prev_kind == "free":
                raise AssertionError(f"{self.name}: adjacent uncoalesced free blocks at {start}")
            cursor = end
            prev_kind = kind
        if cursor != self.capacity:
            raise AssertionError(f"{self.name}: region map covers {cursor} != {self.capacity}")
        if sum(e.size for e in self._live.values()) != self._allocated:
            raise AssertionError(f"{self.name}: allocated-bytes counter out of sync")
