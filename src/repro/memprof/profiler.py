"""The memory observatory: per-allocation provenance over ``memsim``.

``MemoryProfiler`` attaches to one ``Device`` (or ``HostMemory``) by
subscribing to its ``alloc``/``free`` doors (``repro.utils.doors``), as
``memsim.timeline.MemoryTimeline`` does, and records, for every live block,
its ZeRO state class, allocation site, and engine phase (read from the
thread-local scopes in :mod:`repro.memprof.provenance`; an unscoped
block's class comes from this profiler's memo of ``classify_tag``). It
never changes what the allocator does: sizes, handles, cache behaviour,
and OOM timing are byte-identical with the profiler attached or not.

Accounting invariant (checked by ``verify_accounting``, and on every
allocator event when ``self_check=True``): the sum of per-category live
bytes in the main heap plus the untracked baseline (blocks that were
already live when the profiler attached) equals ``device.allocated_bytes``
exactly. MD-region bytes are tracked per category too but held in a
separate ledger, because ``Device.allocated_bytes`` intentionally excludes
the defrag region (ZeRO-R MD reserves it up front).

A step-boundary **leak sentinel** (``note_step``/``leak_suspects``) flags
categories whose live bytes grow monotonically across ``LEAK_WINDOW``
consecutive steps — the steady-state training loop should return every
category to its baseline at each optimizer boundary.
"""

from __future__ import annotations

from collections import deque

from repro.memprof import provenance
from repro.memprof.provenance import CATEGORIES, _tls, classify_tag

LEAK_WINDOW = 3  # step boundaries of strict growth that flag a leak


class _LiveBlock:
    __slots__ = ("size", "tag", "site", "category", "phase", "pool")

    def __init__(self, size, tag, site, category, phase, pool):
        self.size = size
        self.tag = tag
        self.site = site
        self.category = category
        self.phase = phase
        self.pool = pool


class MemoryProfiler:
    """Attach provenance tracking to one device or host pool.

    Parameters
    ----------
    device:
        A ``memsim.Device`` or ``memsim.HostMemory``.
    self_check:
        Verify the accounting invariant on *every* alloc/free (cheap int
        compare; used by the Figure 7 reproduction to prove attribution is
        exact at every probe point).
    workload:
        Optional ``repro.memprof.postmortem.Workload`` describing the model
        config / cluster shape, letting OOM postmortems reuse
        ``analysis.advisor`` to name a concrete ZeRO config that fits.
    """

    MAX_STEP_HISTORY = 64

    def __init__(
        self,
        device,
        *,
        self_check: bool = False,
        workload=None,
    ):
        if getattr(device, "profiler", None) is not None:
            raise ValueError(f"{getattr(device, 'name', device)}: profiler already attached")
        self.device = device
        self.self_check = self_check
        self.workload = workload
        self.pool_name = getattr(device, "name", "device")
        self._is_device = hasattr(device, "raw")  # Device vs HostMemory

        self._live: dict[tuple[str, int], _LiveBlock] = {}
        #: (tag, phase) -> classify_tag(tag, phase), for unscoped blocks
        self._classified: dict[tuple[str, str], str] = {}
        self.live_by_category: dict[str, int] = {c: 0 for c in CATEGORIES}
        self.peak_by_category: dict[str, int] = {c: 0 for c in CATEGORIES}
        self.md_live_by_category: dict[str, int] = {c: 0 for c in CATEGORIES}
        self._main_live = 0  # tracked live bytes in the main heap
        self.n_events = 0
        self._step_history: deque[dict[str, int]] = deque(maxlen=self.MAX_STEP_HISTORY)

        # Blocks live before we attached: we can't attribute them, but we
        # must account for them so tracked + untracked == allocated holds.
        self.untracked_bytes = int(device.allocated_bytes)
        self._md_untracked = (
            device._md_allocator.allocated_bytes
            if self._is_device and device._md_allocator is not None
            else 0
        )
        # On a cache-less device the md-region carve itself shows up in
        # raw.allocated_bytes; remember which extent (if any) was already
        # carved so enable_defrag() *after* attach can be recognised in
        # verify_accounting without an allocator event.
        self._attach_md_handle = (
            device._md_extent.handle
            if self._is_device and device._md_extent is not None
            else None
        )

        device.subscribe(self)
        device.profiler = self
        provenance._incr_active(+1)

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "MemoryProfiler":
        return self

    def __exit__(self, *exc) -> bool:
        self.detach()
        return False

    def detach(self) -> None:
        """Unsubscribe from the device and stop tracking."""
        if self.device.profiler is not self:
            return
        self.device.unsubscribe(self)
        self.device.profiler = None
        provenance._incr_active(-1)

    # -- the pool's doors -------------------------------------------------

    def _alloc(self, extent, size: int, tag: str) -> None:
        # Innermost scope wins; the tag classifier is the fallback.
        stack = _tls.stack
        phase = _tls.phase
        if stack:
            category, site = stack[-1]
            site = site or tag
        else:
            site = tag
            category = self._classified.get((tag, phase))
            if category is None:
                category = self._classified[(tag, phase)] = classify_tag(tag, phase)
        if self._is_device:
            key = (extent.pool, extent.handle)
            nbytes, pool = extent.size, extent.pool
        else:
            key = ("host", extent)  # HostMemory.alloc returns a bare handle
            nbytes, pool = int(size), "host"
        self._live[key] = _LiveBlock(nbytes, tag, site, category, phase, pool)
        if pool == "md":
            self.md_live_by_category[category] += nbytes
        else:
            self.live_by_category[category] += nbytes
            self._main_live += nbytes
        combined = self.live_by_category[category] + self.md_live_by_category[category]
        if combined > self.peak_by_category[category]:
            self.peak_by_category[category] = combined
        self.n_events += 1
        if self.self_check:
            self.verify_accounting()

    def _free(self, extent, size: int) -> None:
        key = (extent.pool, extent.handle) if self._is_device else ("host", extent)
        block = self._live.pop(key, None)
        if block is None:
            # Allocated before we attached: shrink the untracked baseline.
            if self._is_device and extent.pool == "md":
                self._md_untracked -= size
            else:
                self.untracked_bytes -= size
            self.n_events += 1
            return
        if block.pool == "md":
            self.md_live_by_category[block.category] -= block.size
        else:
            self.live_by_category[block.category] -= block.size
            self._main_live -= block.size
        self.n_events += 1
        if self.self_check:
            self.verify_accounting()

    def recategorize(self, extent, category: str, site: str = "") -> None:
        """Re-attribute an already-live extent to a new owner/category.

        Used when a tensor changes role after allocation — e.g. a backward
        temporary that becomes ``Parameter.grad``: the bytes move from the
        phase-inferred ``activation`` class to ``grad_fp16`` without any
        allocator traffic, keeping attribution truthful."""
        if category not in CATEGORIES:
            raise ValueError(f"unknown memprof category {category!r}")
        key = (extent.pool, extent.handle) if self._is_device else ("host", extent)
        block = self._live.get(key)
        if block is None or block.category == category:
            return
        if block.pool == "md":
            self.md_live_by_category[block.category] -= block.size
            self.md_live_by_category[category] += block.size
        else:
            self.live_by_category[block.category] -= block.size
            self.live_by_category[category] += block.size
        block.category = category
        if site:
            block.site = site
        combined = self.live_by_category[category] + self.md_live_by_category[category]
        if combined > self.peak_by_category[category]:
            self.peak_by_category[category] = combined

    # -- invariants ------------------------------------------------------

    def verify_accounting(self) -> None:
        """Tracked + untracked main-heap bytes must equal the pool's own
        ``allocated_bytes`` counter, exactly, at every probe point."""
        allocated = int(self.device.allocated_bytes)
        tracked = self._main_live + self.untracked_bytes
        if self._is_device and self.device.cache is None:
            ext = self.device._md_extent
            if ext is not None and ext.handle != self._attach_md_handle:
                # enable_defrag() after attach carved the region straight
                # from the raw heap without an alloc event we could see.
                tracked += ext.size
        if tracked != allocated:
            raise AssertionError(
                f"memprof accounting drift on {self.pool_name}: "
                f"tracked {self._main_live} + untracked {self.untracked_bytes} "
                f"= {tracked} != allocated {allocated}"
            )

    # -- leak sentinel ---------------------------------------------------

    def note_step(self) -> None:
        """Record per-category live bytes at a step boundary (called by the
        engines after the optimizer boundary completes)."""
        self._step_history.append(
            {
                c: self.live_by_category[c] + self.md_live_by_category[c]
                for c in CATEGORIES
            }
        )

    def leak_suspects(self) -> list[str]:
        """Categories whose live bytes grew strictly monotonically across
        the last ``LEAK_WINDOW`` step boundaries. Empty until
        ``LEAK_WINDOW + 1`` boundaries exist."""
        k = LEAK_WINDOW
        hist = list(self._step_history)
        if len(hist) < k + 1:
            return []
        window = hist[-(k + 1):]
        return [
            c
            for c in CATEGORIES
            if all(window[i + 1][c] > window[i][c] for i in range(k))
        ]

    # -- views -----------------------------------------------------------

    def live_blocks(self) -> list[dict]:
        """Live tracked blocks, largest first, with provenance."""
        rows = [
            {
                "bytes": b.size,
                "tag": b.tag,
                "site": b.site,
                "category": b.category,
                "phase": b.phase or "(unlabelled)",
                "pool": b.pool,
            }
            for b in self._live.values()
        ]
        rows.sort(key=lambda r: r["bytes"], reverse=True)
        return rows

    def stats(self):
        from repro.memprof.stats import compute_stats

        return compute_stats(self)

    def snapshot(self) -> dict:
        from repro.memprof.stats import build_snapshot

        return build_snapshot(self)
