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

A run of allocations and frees that is made again and again (a block
tape's re-issue, ``repro.nn.tape``) can be made in one call: a
``Transition`` summarises the run once — per size class, how deep into the
cached stack it reaches and what it leaves on top; the net ``allocated``
delta and its prefix maximum; the allocations that outlive it — and
``apply`` makes it when every allocation of the run is an exact size-class
hit. That is why the result is bitwise the event-by-event one: an exact
hit pops a block of exactly the requested class and a free pushes it back
onto its own class, so the stacks, ``allocated`` and its peak are a
function of the run and the stacks' depths alone, and no best-fit choice,
split, flush or backing allocation can occur. ``apply`` checks the depths,
and that every block the run frees from before it is live and of the size
the summary assumed, before it changes anything, and declines otherwise,
leaving the caller to make the run event by event.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

from repro.memsim.block_allocator import ALIGN_MASK, ALIGNMENT, BlockAllocator, Extent, _tag_of
from repro.memsim.errors import InvalidFreeError

# A cached block may be reused un-split if the request wastes at most this
# fraction of it; otherwise prefer splitting / fresh allocation.
_REUSE_WASTE_LIMIT = 0.25
# Blocks at least this large are split on reuse instead of wasted.
_SPLIT_THRESHOLD = 1 << 20  # 1 MiB


class Transition:
    """A run of allocator events, summarised for ``CachingAllocator.apply``.

    The run is a list of ints over numbered *slots*: a positive ``size``
    allocates that many bytes into the next slot (``first``, ``first + 1``,
    ...) and ``~j`` frees slot ``j``. A slot below ``first`` was filled
    before the run; ``sizes`` holds every slot's aligned size. The summary
    assumes each allocation pops its class's stack and each free pushes
    onto it. ``apply`` builds a *pool*:
    the blocks the run takes from under what it pushed itself, class by
    class, each class's bottom first, then the blocks of the slots it frees
    from before. The summary records, with blocks as pool positions:

    * ``checks`` — ``(size, depth)`` per class the run draws ``depth``
      blocks from and leaves as it found it (it put back what it took, in
      order): only the depth is checked;
    * ``takes`` — ``(size, depth)`` per class the run draws from and
      changes: the top ``depth`` blocks go to the pool;
    * ``frees`` — ``(slot, size)`` per slot from before the run that it
      frees, in order;
    * ``puts`` — ``(size, positions)`` per class the run changes or only
      frees into: what it leaves on top of the rest, bottom first;
    * ``survivors`` — ``(slot, position)`` per allocation still live at
      the end, in allocation order;
    * ``delta`` and ``peak`` — the net change of ``allocated`` and its
      maximum just after an allocation (``n_allocs`` of them).

    It keeps the run itself too (``events``, ``first``, ``sizes``, the
    caller's lists, not copies), and the slots of ``frees`` and of
    ``survivors`` (``freed_slots``, ``survivor_slots``), so that a longer
    run made of it can be summarised in turn (``Device.step_transition``).
    """

    __slots__ = ("n_allocs", "delta", "peak", "checks", "takes", "frees", "puts",
                 "survivors", "events", "first", "sizes", "freed_slots", "survivor_slots")

    def __init__(self, events: list[int], first: int, sizes: list[int]):
        self.events, self.first, self.sizes = events, first, sizes
        # A run-local source is (size, k), the class's k-th block from the
        # top when the run began, or an int, a slot freed from before.
        depth: dict[int, int] = {}  # per class, in the order the run touches them
        pushed: dict[int, list] = {}  # per class, sources on top of what is left, bottom first
        live: dict[int, object] = {}  # slot allocated in the run -> its source
        outside: list[int] = []  # slots from before the run that it frees
        slot = first
        delta, peak = 0, None
        for e in events:
            if e > 0:
                size = sizes[slot]
                if size not in depth:
                    depth[size], pushed[size] = 0, []
                stack = pushed[size]
                if stack:
                    live[slot] = stack.pop()
                else:
                    live[slot] = (size, depth[size])
                    depth[size] += 1
                slot += 1
                delta += size
                if peak is None or delta > peak:
                    peak = delta
            else:
                j = ~e
                if j in live:
                    source = live.pop(j)
                else:
                    source = j
                    outside.append(j)
                size = sizes[j]
                if size not in depth:
                    depth[size], pushed[size] = 0, []
                pushed[size].append(source)
                delta -= size
        self.n_allocs, self.delta, self.peak = slot - first, delta, peak
        kept = {
            size for size, d in depth.items()
            if pushed[size] == [(size, k) for k in range(d - 1, -1, -1)]
        }
        self.checks = tuple((size, d) for size, d in depth.items() if d and size in kept)
        self.takes = tuple((size, d) for size, d in depth.items() if d and size not in kept)
        bottom, at = {}, 0  # class -> pool position of its bottom taken block
        for size, d in self.takes:
            bottom[size] = at
            at += d
        out = {j: at + i for i, j in enumerate(outside)}

        def position(source) -> int:
            if source.__class__ is int:
                return out[source]
            size, k = source
            return bottom[size] + depth[size] - 1 - k

        self.frees = tuple((j, sizes[j]) for j in outside)
        self.puts = tuple(  # a class the run only frees into may be new: it is made
            (size, tuple(map(position, pushed[size])))
            for size, d in depth.items() if not d or (size not in kept and pushed[size])
        )
        self.survivors = tuple((slot, position(source)) for slot, source in live.items())
        self.freed_slots, self.survivor_slots = tuple(outside), tuple(live)


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
        need = (int(size) + ALIGN_MASK) & ~ALIGN_MASK
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

    def apply(self, t: Transition, extents: list, tags: list) -> bool:
        """Make the run ``t`` summarises as if each of its events were an
        ``alloc`` / ``free`` here, every allocation an exact size-class hit;
        False, with nothing changed, if one would not be (a class's stack
        is too shallow) or a block the run frees is not a live one of the
        size the summary assumed (it was not an exact hit). ``extents``
        and ``tags`` are per slot: the run reads the extents of the slots
        it frees and writes its survivors', tagged ``tags[slot]``."""
        classes, live = self._classes, self._live
        pool = []
        try:  # a missing class or a stack shallower than ``depth`` raises
            for size, depth in t.checks:
                classes[size][-depth]
            for size, depth in t.takes:
                stack = classes[size]
                stack[-depth]
                pool += stack[-depth:]
        except (KeyError, IndexError):
            return False
        handles = []
        for slot, size in t.frees:
            extent = extents[slot]
            handle = extent.handle
            if live.get(handle) is not extent or extent.size != size:
                return False
            pool += (extent,)
            handles += (handle,)
        owners = self._tags
        for handle in handles:
            del live[handle], owners[handle]
        for size, depth in t.takes:
            del classes[size][-depth:]
        for size, positions in t.puts:
            stack = classes.get(size)
            if stack is None:
                stack = classes[size] = []
                insort(self._sizes, size)
            for at in positions:
                stack += (pool[at],)
        for slot, at in t.survivors:
            extent = extents[slot] = pool[at]
            live[extent.handle] = extent
            owners[extent.handle] = tags[slot]
        allocated = self._allocated
        if t.n_allocs:
            self.n_cache_hits += t.n_allocs
            if allocated + t.peak > self.max_allocated:
                self.max_allocated = allocated + t.peak
        self._allocated = allocated + t.delta
        return True

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
        if waste >= ALIGNMENT and block.size >= _SPLIT_THRESHOLD:
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
