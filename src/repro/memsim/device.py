"""Simulated accelerator device and host (CPU) memory pools.

A ``Device`` wires a raw block allocator and a caching allocator together
and exposes torch.cuda-like accounting (allocated / reserved / peaks).
``HostMemory`` is the CPU pool used by Pa+cpu activation offload — treated
as effectively unbounded (the paper never hits CPU capacity) but fully
accounted so experiments can report offloaded bytes.

ZeRO-R's memory defragmentation (MD, Section 6.3) is ``enable_defrag``:
one long-lived extent carved out up front, with its own block allocator
inside, so long-lived tensors (activation checkpoints, parameter
gradients) never interleave with short-lived ones in the general heap.

A device can also note what one training step does to it
(``record_step`` / ``step_transition``): a step that frees only what it
allocated and leaves nothing allocated is *closed*, and summarises to one
``Transition`` that another device applies in one call. That is how a
member of a meta ``Cluster``'s rank class makes its leader's step
(ARCHITECTURE §1, "Meta worlds").
"""

from __future__ import annotations

from itertools import repeat
from operator import add, attrgetter

from repro.hardware.specs import GPUSpec, V100_32GB
from repro.memsim.block_allocator import ALIGN_MASK, BlockAllocator, Extent
from repro.memsim.caching_allocator import CachingAllocator, Transition
from repro.memsim.errors import InvalidFreeError, OutOfMemoryError
from repro.utils.doors import Doors


class Device(Doors):
    """One simulated GPU: capacity, caching allocator, peak accounting.

    ``alloc`` and ``free`` are the doors (``repro.utils.doors``) of its
    bytes: a subscriber hears ``_alloc(extent, size, tag)`` after each
    allocation and ``_free(extent, size)`` after each free, and one that
    also has ``_freeing(extent)`` hears it before the free, while the pool
    still knows the extent's tag."""

    POINTS = ("_alloc", "_freeing", "_free")

    # Attached memory observatory (repro.memprof.MemoryProfiler), if any.
    # Class attribute so the default-off check is one attribute read and no
    # per-device state exists until a profiler actually attaches.
    profiler = None

    def __init__(self, spec: GPUSpec = V100_32GB, *, index: int = 0, use_cache: bool = True):
        self.spec = spec
        self.index = index
        self.name = f"sim-gpu:{index}"
        self.raw = BlockAllocator(spec.memory_bytes, name=self.name)
        self.cache = CachingAllocator(self.raw) if use_cache else None
        # ZeRO-R MD: optional routing of long-lived tensors into a
        # pre-allocated contiguous region (see enable_defrag).
        self._md_allocator: BlockAllocator | None = None
        self._md_extent: Extent | None = None
        self._md_predicate = None
        # tag -> "does the predicate route it into the region?", filled as
        # tags are first seen (a step re-uses a few hundred tag strings).
        self._md_routes: dict[str, bool] = {}
        # id of a per-slot tag list ``apply`` has checked -> (the list, does
        # a tag in it route?). The entry holds its list, so the id stays
        # that list's; a block tape keeps a list per block for its life.
        # ``_md_clear`` is the last list found clear, checked first.
        self._md_verdicts: dict[int, tuple[list, bool]] = {}
        self._md_clear: list | None = None
        # The step being noted (``record_step``; ``_summarise`` has the
        # notes' form): its notes, its live blocks by handle, whether it
        # freed a block from before it. Then the last closed step
        # summarised, its notes and its ``Transition``: at first the empty
        # step's, so the first summary replaces one instead of adding one.
        self._noted: list | None = None
        self._noted_live: dict[int, int] = {}
        self._noted_outside = False
        self._stepped: tuple[list, Transition] = (
            [], Transition([], 0, [])
        )

    # -- ZeRO-R MD (memory defragmentation, Section 6.3) --------------------

    def enable_defrag(self, region_bytes: int, tag_predicate) -> None:
        """Reserve one contiguous region and route allocations whose tag
        satisfies ``tag_predicate`` (e.g. gradients, activation checkpoints)
        into it, so long-lived tensors never interleave with short-lived
        ones in the general heap."""
        if self._md_allocator is not None:
            raise ValueError(f"{self.name}: defrag region already enabled")
        self._md_extent = self.raw.alloc(region_bytes, "md-region")
        self._md_allocator = BlockAllocator(region_bytes, name=f"{self.name}/md", pool="md")
        self._md_predicate = tag_predicate

    @property
    def md_region_bytes(self) -> int:
        return self._md_allocator.capacity if self._md_allocator else 0

    # -- allocation ------------------------------------------------------

    def alloc(self, size: int, tag: str = "") -> Extent:
        """The one way into this device's pools (``free`` is the one way
        out): the memory observatory and the timeline see every byte
        because they subscribe to exactly this pair."""
        extent = None
        md = self._md_allocator
        if md is not None:
            try:
                routed = self._md_routes[tag]
            except KeyError:
                routed = self._md_routes[tag] = bool(self._md_predicate(tag))
            if routed:
                extent = md.try_alloc(size, tag)  # None: full, so the general heap
        if extent is None:
            try:
                extent = (self.raw if self.cache is None else self.cache).alloc(size, tag)
            except OutOfMemoryError as exc:
                self._annotate_oom(exc)
                raise
        if self.on_alloc:
            for sub in self.on_alloc:
                sub._alloc(extent, size, tag)
        if self._noted is not None:
            noted = self._noted
            self._noted_live[extent.handle] = len(noted)
            noted.append(size)
        return extent

    def _annotate_oom(self, exc: OutOfMemoryError) -> None:
        """Enrich an escaping OOM with device totals (always) and, when the
        memory observatory is attached, a structured postmortem."""
        exc.attach_device_stats(
            allocated=self.allocated_bytes,
            reserved=self.reserved_bytes,
            capacity=self.spec.memory_bytes,
            largest_free=self.raw.largest_free_block,
        )
        if self.profiler is not None and exc.postmortem is None:
            from repro.memprof.postmortem import build_postmortem

            exc.postmortem = build_postmortem(self.profiler, exc)

    def free(self, extent: Extent) -> None:
        told = self.on_free
        if told:
            for sub in self.on_freeing:
                sub._freeing(extent)
        if extent.pool == "md":
            self._md_allocator.free(extent)
        else:
            (self.raw if self.cache is None else self.cache).free(extent)
        if told:
            for sub in told:
                sub._free(extent, extent.size)
        if self._noted is not None:
            try:
                self._noted.append(~self._noted_live.pop(extent.handle))
            except KeyError:
                self._noted_outside = True  # a block from before the step

    def apply(self, transition: Transition, extents: list, tags: list) -> bool:
        """A run of ``alloc`` / ``free`` calls in one: the run ``transition``
        summarises, over the per-slot ``extents`` and ``tags`` (see
        ``CachingAllocator.apply``). Made only where it is bitwise what
        calling the doors gives and nobody would miss a call: nothing
        subscribes to the doors, no tag in ``tags`` (every slot's, checked
        once per list) routes into the MD region, and the cache serves
        every allocation with an exact size-class hit. Otherwise False,
        with nothing changed, and the caller makes the run through the
        doors. A run of frees alone routes nothing: its ``tags`` are not
        read; a list that was read keeps its verdict."""
        if self.on_alloc or self.on_free or self.cache is None:
            return False
        if (self._md_allocator is not None and transition.n_allocs
                and tags is not self._md_clear):
            try:
                verdict = self._md_verdicts[id(tags)]
            except KeyError:
                verdict = None
            if verdict is None or verdict[0] is not tags:
                verdict = self._md_verdicts[id(tags)] = (tags, self._routes_any(tags))
            if verdict[1]:
                return False
            self._md_clear = tags
        if not self.cache.apply(transition, extents, tags):
            return False
        noted = self._noted
        if noted is not None:
            # Note the run: the refs of the blocks from before it that it
            # frees, and its survivors' refs.
            live, freed, before = self._noted_live, transition.freed_slots, ()
            if freed:
                try:
                    before = tuple(map(live.pop, map(_handle, map(extents.__getitem__, freed))))
                except KeyError:  # a block from before the step
                    self._noted_outside = True
            kept = transition.survivor_slots
            if kept:
                refs = map(add, repeat((len(noted) + 1) * _RUN_STRIDE - transition.first), kept)
                live.update(zip(map(_handle, map(extents.__getitem__, kept)), refs))
            noted.append((transition, before))
        return True

    def _routes_any(self, tags) -> bool:
        """Whether the MD predicate routes any of ``tags`` into the region."""
        routes = self._md_routes
        for tag in tags:
            try:
                routed = routes[tag]
            except KeyError:
                routed = routes[tag] = bool(self._md_predicate(tag))
            if routed:
                return True
        return False

    # -- a step in one transition ------------------------------------------

    def record_step(self) -> None:
        """Note every allocator event from here to ``step_transition``: an
        ``alloc`` or ``free`` appends one note, an applied run one. A
        device with an MD region or no cache notes nothing."""
        if self.cache is not None and self._md_allocator is None:
            self._noted, self._noted_outside = [], False
            self._noted_live.clear()

    def step_transition(self) -> Transition | None:
        """Stop noting; the noted step as one ``Transition`` over slots of
        its own, or None unless it was *closed*: it freed only blocks it
        allocated and left none of them allocated. Applied to another
        device in the state this one started from (``apply(t, [], ())``),
        it is that step. A step noted as the last closed one was reuses
        its summary."""
        noted, self._noted = self._noted, None
        if noted is None or self._noted_outside or self._noted_live:
            return None
        stepped = self._stepped
        if stepped[0] != noted:
            stepped = self._stepped = (noted, _summarise(noted))
        return stepped[1]

    def tag_of(self, extent: Extent) -> str:
        """The tag a live ``extent`` from ``alloc`` was allocated under,
        asked of the pool that owns it (the tag is not on the extent)."""
        if extent.pool == "md":
            return self._md_allocator.tag_of(extent)
        return (self.raw if self.cache is None else self.cache).tag_of(extent)

    # -- accounting (torch.cuda.* analogs) ---------------------------------

    @property
    def allocated_bytes(self) -> int:
        return self.cache.allocated_bytes if self.cache else self.raw.allocated_bytes

    @property
    def reserved_bytes(self) -> int:
        return self.cache.reserved_bytes if self.cache else self.raw.allocated_bytes

    @property
    def max_allocated_bytes(self) -> int:
        return self.cache.max_allocated if self.cache else self.raw.allocated_bytes

    @property
    def max_reserved_bytes(self) -> int:
        """Peak reserved memory — the paper's Figure 7 'max cache allocated'."""
        return self.cache.max_reserved if self.cache else self.raw.allocated_bytes

    @property
    def free_bytes(self) -> int:
        return self.spec.memory_bytes - self.allocated_bytes

    def reset_peak_stats(self) -> None:
        if self.cache is not None:
            self.cache.reset_peak_stats()

    def empty_cache(self) -> int:
        return self.cache.empty_cache() if self.cache else 0

    def snapshot(self) -> dict:
        """JSON-serializable device view: totals + per-allocator snapshots.

        Works with or without a profiler attached; ``repro.memprof`` layers
        provenance (categories, sites, phases) on top of this raw view.
        """
        snap = {
            "device": self.name,
            "capacity": self.spec.memory_bytes,
            "allocated": self.allocated_bytes,
            "reserved": self.reserved_bytes,
            "cached": self.reserved_bytes - self.allocated_bytes,
            "max_allocated": self.max_allocated_bytes,
            "max_reserved": self.max_reserved_bytes,
            "largest_free_block": self.raw.largest_free_block,
            "external_fragmentation": self.raw.stats().external_fragmentation,
            "md_region_bytes": self.md_region_bytes,
            "md_used_bytes": (
                self._md_allocator.allocated_bytes if self._md_allocator else 0
            ),
            "heap": (self.cache.snapshot() if self.cache else self.raw.snapshot()),
        }
        if self._md_allocator is not None:
            snap["md"] = self._md_allocator.snapshot()
        return snap


#: A noted step's allocation is named by a *ref*: a door's allocation by
#: the index of its note, the ``k``-th allocation of the run noted at index
#: ``i`` by ``(i + 1) * _RUN_STRIDE + k`` (no step has that many notes,
#: nor a run that many allocations).
_RUN_STRIDE = 1 << 40
_handle = attrgetter("handle")


def _summarise(noted: list) -> Transition:
    """A closed step's notes as one run over its own allocations, numbered
    in the order it made them. A note is a door's allocation (its
    requested size), a door's free (``~ref`` of the block), or an applied
    run (``(transition, the refs of the blocks from before the run that
    it frees)``)."""
    events, sizes = [], []
    slot_of: dict[int, int] = {}  # a door allocation's note index -> its slot
    run_base: dict[int, int] = {}  # a run's note index -> its first allocation's slot

    def slot(ref: int) -> int:
        if ref < _RUN_STRIDE:
            return slot_of[ref]
        return run_base[ref // _RUN_STRIDE - 1] + ref % _RUN_STRIDE

    for i, note in enumerate(noted):
        if note.__class__ is tuple:
            t, before = note
            first, base = t.first, len(sizes)
            run_base[i] = base
            sizes += t.sizes[first : first + t.n_allocs]
            outside = {j: slot(ref) for (j, _), ref in zip(t.frees, before)}
            for e in t.events:
                if e > 0:
                    events.append(e)
                else:
                    j = ~e
                    events.append(~(base + j - first) if j >= first else ~outside[j])
        elif note > 0:
            slot_of[i] = len(sizes)
            sizes.append((int(note) + ALIGN_MASK) & ~ALIGN_MASK)
            events.append(note)
        else:
            events.append(~slot(~note))
    return Transition(events, 0, sizes)


class HostMemory(Doors):
    """CPU-side memory pool for activation (Pa+cpu) and model-state offload.

    Capacity defaults to a DGX-2's 1.5 TB host DRAM. The simulation only
    needs byte accounting, so the allocator is a plain counter — but the
    stats surface mirrors ``Device`` (current/peak bytes, allocation
    counts, capacity, OOM on overflow) so offload *placement* is as
    auditable as device residency: every byte the offload engine parks on
    the host shows up here, and overflowing the pool fails loudly instead
    of silently pretending the host is infinite.

    Its ``alloc`` / ``free`` are doors as ``Device``'s are, without
    ``_freeing``: the pool keeps no tags, and a free tells ``_free(handle,
    size)``.
    """

    POINTS = ("_alloc", "_free")

    # Attached memory observatory (repro.memprof.MemoryProfiler), if any.
    profiler = None

    def __init__(self, capacity: int = int(1.5e12), *, name: str = "host"):
        if capacity <= 0:
            raise ValueError(f"host capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self.allocated_bytes = 0
        self.max_allocated_bytes = 0
        self.alloc_count = 0
        self.free_count = 0
        self._live: dict[int, int] = {}
        self._next_handle = 1

    # -- accounting (Device-parity surface) ---------------------------------

    @property
    def reserved_bytes(self) -> int:
        """No caching layer on the host pool: reserved == allocated."""
        return self.allocated_bytes

    @property
    def max_reserved_bytes(self) -> int:
        return self.max_allocated_bytes

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.allocated_bytes

    def reset_peak_stats(self) -> None:
        self.max_allocated_bytes = self.allocated_bytes

    # -- allocation ---------------------------------------------------------

    def alloc(self, size: int, tag: str = "") -> int:
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if self.allocated_bytes + size > self.capacity:
            free = self.capacity - self.allocated_bytes
            exc = OutOfMemoryError(size, free, free, device=self.name)
            exc.attach_device_stats(
                allocated=self.allocated_bytes,
                reserved=self.reserved_bytes,
                capacity=self.capacity,
            )
            if self.profiler is not None and exc.postmortem is None:
                from repro.memprof.postmortem import build_postmortem

                exc.postmortem = build_postmortem(self.profiler, exc)
            raise exc
        handle = self._next_handle
        self._next_handle += 1
        self._live[handle] = size
        self.allocated_bytes += size
        self.alloc_count += 1
        self.max_allocated_bytes = max(self.max_allocated_bytes, self.allocated_bytes)
        if self.on_alloc:
            for sub in self.on_alloc:
                sub._alloc(handle, size, tag)
        return handle

    def free(self, handle: int) -> None:
        size = self._live.pop(handle, None)
        if size is None:
            raise InvalidFreeError(f"{self.name}: handle {handle} is not live (double free?)")
        self.allocated_bytes -= size
        self.free_count += 1
        if self.on_free:
            for sub in self.on_free:
                sub._free(handle, size)
