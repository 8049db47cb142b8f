"""Caching allocator: reserved/cached semantics, flush-and-retry, peaks."""

import bisect
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.block_allocator import ALIGNMENT, BlockAllocator
from repro.memsim.caching_allocator import CachingAllocator, Transition
from repro.memsim.errors import InvalidFreeError, OutOfMemoryError
from tests.streams import watch_devices

KB = 1024
MB = 1024 * KB


def make(capacity=16 * MB):
    return CachingAllocator(BlockAllocator(capacity, name="t"))


def test_free_keeps_bytes_reserved():
    c = make()
    e = c.alloc(1 * MB)
    assert c.allocated_bytes == 1 * MB
    assert c.reserved_bytes == 1 * MB
    c.free(e)
    assert c.allocated_bytes == 0
    assert c.reserved_bytes == 1 * MB  # cached, not returned
    assert c.cached_bytes == 1 * MB


def test_cache_hit_reuses_block():
    c = make()
    e = c.alloc(1 * MB)
    c.free(e)
    c.alloc(1 * MB)
    assert c.n_cache_hits == 1
    assert c.reserved_bytes == 1 * MB  # no new device memory


def test_empty_cache_releases_to_device():
    c = make()
    e = c.alloc(2 * MB)
    c.free(e)
    released = c.empty_cache()
    assert released == 2 * MB
    assert c.reserved_bytes == 0
    assert c.backing.allocated_bytes == 0


def test_oom_triggers_flush_and_retry():
    c = make(capacity=4 * MB)
    e = c.alloc(3 * MB)
    c.free(e)  # 3MB cached
    # 3.5MB fits no cached block and no fresh space -> flush cache, retry.
    c.alloc(3 * MB + 512 * KB)
    assert c.n_flushes == 1
    assert c.allocated_bytes == 3 * MB + 512 * KB


def test_hard_oom_still_raises():
    c = make(capacity=2 * MB)
    c.alloc(2 * MB)
    with pytest.raises(OutOfMemoryError):
        c.alloc(1 * MB)


def test_max_reserved_tracks_peak():
    c = make()
    e1 = c.alloc(4 * MB)
    c.free(e1)
    e2 = c.alloc(1 * MB)
    # Peak reserved was during the 4MB allocation.
    assert c.max_reserved == 4 * MB
    assert c.max_allocated == 4 * MB
    del e2


def test_reset_peak_stats():
    c = make()
    e = c.alloc(4 * MB)
    c.free(e)
    c.empty_cache()
    c.reset_peak_stats()
    assert c.max_reserved == 0
    c.alloc(1 * MB)
    assert c.max_reserved == 1 * MB


def test_large_cached_block_is_split_on_smaller_request():
    c = make()
    e = c.alloc(8 * MB)
    c.free(e)
    c.alloc(1 * MB)
    # The 8MB block must not be wasted whole on a 1MB request.
    assert c.allocated_bytes == 1 * MB
    assert c.reserved_bytes < 8 * MB + 1 * MB


def test_small_poor_fit_prefers_fresh_allocation():
    c = make()
    e = c.alloc(100 * KB)  # small block (< split threshold)
    c.free(e)
    c.alloc(10 * KB)  # would waste 90% of cached block
    assert c.allocated_bytes == 10 * KB
    assert c.cached_bytes >= 100 * KB  # original stays cached


def test_double_free_raises():
    c = make()
    e = c.alloc(1 * MB)
    c.free(e)
    with pytest.raises(InvalidFreeError):
        c.free(e)


def test_stats_snapshot():
    c = make()
    e = c.alloc(1 * MB)
    c.free(e)
    c.alloc(1 * MB)
    s = c.stats()
    assert s.allocated == 1 * MB
    assert s.n_cache_hits == 1
    assert s.n_cache_misses == 1


def test_interleaved_sizes_accounting_consistent():
    c = make()
    extents = [c.alloc((i % 5 + 1) * 100 * KB) for i in range(20)]
    for e in extents[::2]:
        c.free(e)
    assert c.reserved_bytes >= c.allocated_bytes
    assert c.backing.allocated_bytes == c.reserved_bytes
    for e in extents[1::2]:
        c.free(e)
    assert c.allocated_bytes == 0


# -- oracle: the size-class cache against the two-list best fit it replaced ----


class _TwoListCache(CachingAllocator):
    """The cache as it was before size classes, kept as the reference: two
    parallel lists sorted by block size, freed blocks inserted at
    ``bisect_left``, requests served from ``bisect_left``."""

    def __init__(self, backing):
        super().__init__(backing)
        self.sizes, self.blocks = [], []

    def _cached_blocks(self):
        return list(self.blocks)

    def alloc(self, size, tag=""):
        need = self.backing.aligned(size)
        extent = self._take_cached(need, tag)
        if extent is None:
            self.n_cache_misses += 1
            try:
                extent = self.backing.alloc(need, tag)
            except OutOfMemoryError:
                self._flush_cache()
                extent = self.backing.alloc(need, tag)
            self._reserved += extent.size
        self._live[extent.handle] = extent
        self._tags[extent.handle] = tag
        self._allocated += extent.size
        self.max_allocated = max(self.max_allocated, self._allocated)
        self.max_reserved = max(self.max_reserved, self._reserved)
        return extent

    def free(self, extent):
        live = self._live.pop(extent.handle, None)
        if live is None:
            raise InvalidFreeError(f"handle {extent.handle} is not live")
        del self._tags[extent.handle]
        self._allocated -= live.size
        idx = bisect.bisect_left(self.sizes, live.size)
        self.sizes.insert(idx, live.size)
        self.blocks.insert(idx, live)

    def _take_cached(self, need, tag):
        idx = bisect.bisect_left(self.sizes, need)
        if idx >= len(self.sizes):
            return None
        block = self.blocks[idx]
        waste = block.size - need
        if waste > 0 and waste > block.size * 0.25 and block.size < MB:
            return None
        del self.sizes[idx]
        del self.blocks[idx]
        if waste >= ALIGNMENT and block.size >= MB:
            self.backing.free(block)
            self._reserved -= block.size
            self.n_cache_misses += 1
            fresh = self.backing.alloc(need, tag)
            self._reserved += fresh.size
            return fresh
        self.n_cache_hits += 1
        return block

    def _flush_cache(self):
        released = 0
        for block in self.blocks:
            self.backing.free(block)
            released += block.size
        self._reserved -= released
        self.sizes.clear()
        self.blocks.clear()
        self.n_flushes += 1
        return released


def _draw_size(rng, palette):
    kind = rng.random()
    if kind < 0.6:
        return palette[rng.integers(len(palette))]  # repeats: exact-size hits
    if kind < 0.7:
        return int(rng.integers(1, 512))  # below the alignment
    if kind < 0.85:
        return int(rng.integers(512, 256 * KB))  # small: poor fits stay cached
    return int(rng.integers(MB, 6 * MB))  # large: split on reuse


@pytest.mark.parametrize("seed", range(6))
def test_size_classes_place_every_block_where_the_two_list_cache_did(seed):
    rng = np.random.default_rng(seed)
    capacity = 24 * MB  # small enough for flush-and-retry and for real OOMs
    new, ref = make(capacity), _TwoListCache(BlockAllocator(capacity, name="t"))
    palette = [_draw_size(rng, [3 * KB]) for _ in range(10)]
    live, ooms = [], 0
    for event in range(1500):
        if live and rng.random() < 0.48:
            a, b = live.pop(rng.integers(len(live)))
            new.free(a)
            ref.free(b)
        else:
            size, tag = _draw_size(rng, palette), f"t{event}"
            try:
                b = ref.alloc(size, tag)
            except OutOfMemoryError as want:
                with pytest.raises(type(want)) as got:
                    new.alloc(size, tag)
                assert vars(got.value) == vars(want)
                ooms += 1
            else:
                a = new.alloc(size, tag)
                assert a == b and new.tag_of(a) == ref.tag_of(b) == tag, event
                live.append((a, b))
        assert new.stats() == ref.stats(), event
        assert new.reserved_bytes == ref.reserved_bytes
        assert new.snapshot() == ref.snapshot(), event
        assert new.backing.free_segments() == ref.backing.free_segments(), event
    stats = new.stats()
    assert stats.n_flushes >= 2 and ooms >= 1, "the stream must reach the retry path"
    assert stats.n_cache_hits > 100 and stats.n_cache_misses > 100
    assert new.empty_cache() == ref.empty_cache()
    assert new.backing.free_segments() == ref.backing.free_segments()


def test_an_emptied_class_is_forgotten_only_when_a_search_walks_over_it():
    c = make()
    small, large = c.alloc(4 * KB), c.alloc(8 * KB)
    c.free(small)
    c.free(large)
    assert c.alloc(4 * KB).offset == small.offset  # exact hit empties the 4 KB class
    again = c.alloc(7 * KB)  # no 7 KB class: the search passes 4 KB (below), takes 8 KB
    assert again.offset == large.offset and again.size == 8 * KB
    fresh = c.alloc(6 * KB)  # walks over the emptied 8 KB class and finds nothing
    assert fresh.offset not in (small.offset, large.offset)
    assert c.stats().n_cache_hits == 2 and c.stats().n_cache_misses == 3


# -- a run of events in one call: Transition + apply -------------------------------

#: request sizes a run draws from: 1000 aligns to 1024, and a 3072 request
#: finds no class of its own but may take a cached 4096 block whole
RUN_SIZES = (512, 1000, 1536, 3072, 4096)


def _state(c: CachingAllocator) -> tuple:
    """Everything a later event can read: counters, the snapshot, each
    class's stack in order, the live blocks in insertion order with tags."""
    return (
        c.stats(), c.snapshot(), list(c._sizes),
        [(size, [e.handle for e in stack]) for size, stack in c._classes.items()],
        [(handle, c._tags[handle]) for handle in c._live],
    )


def _each(c: CachingAllocator, events, first, extents, tags) -> None:
    """The run through ``alloc`` / ``free``, one call per event."""
    slot = first
    for e in events:
        if e > 0:
            extents[slot] = c.alloc(e, tags[slot])
            slot += 1
        else:
            c.free(extents[~e])


def _aligned(size: int) -> int:
    return (size + 511) & ~511


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_apply_is_the_run_event_by_event_or_changes_nothing(data):
    """Twin allocators warmed alike: ``apply`` on one leaves it as the run
    event by event leaves the other, survivors bound to the same blocks,
    or declines and leaves it as it was."""
    warm = data.draw(st.lists(st.sampled_from(RUN_SIZES), max_size=10))
    order = data.draw(st.permutations(range(len(warm))))
    n_freed = data.draw(st.integers(0, len(warm)))
    before = data.draw(st.lists(st.sampled_from(RUN_SIZES), max_size=4))
    events, sizes = [], [_aligned(s) for s in before]
    live = list(range(len(before)))
    for _ in range(data.draw(st.integers(0, 12))):
        if live and data.draw(st.booleans()):
            slot = data.draw(st.sampled_from(live))
            live.remove(slot)
            events.append(~slot)
        else:
            size = data.draw(st.sampled_from(RUN_SIZES))
            live.append(len(sizes))
            sizes.append(_aligned(size))
            events.append(size)
    tags = [f"t{i}" for i in range(len(sizes))]
    twins = []
    for c in (make(), make()):
        held = [c.alloc(size, "warm") for size in warm]
        for i in order[:n_freed]:
            c.free(held[i])
        extents = [c.alloc(size, tags[i]) for i, size in enumerate(before)]
        twins.append((c, extents + [None] * (len(sizes) - len(before))))
    (a, a_extents), (b, b_extents) = twins
    transition = Transition(events, len(before), sizes)
    if a.apply(transition, a_extents, tags):
        _each(b, events, len(before), b_extents, tags)
        assert _state(a) == _state(b)
        assert [a_extents[i].handle for i in live] == [b_extents[i].handle for i in live]
    else:
        assert _state(a) == _state(b)


def test_apply_declines_a_block_that_was_not_an_exact_hit():
    """A 3072-byte request served whole by a cached 4096-byte block frees
    into the 4096 class, not the 3072 one the summary assumes."""
    c = make()
    c.free(c.alloc(4096))
    extents = [c.alloc(3072, "odd")]
    assert extents[0].size == 4096
    transition = Transition([~0], 1, [3072])
    before = _state(c)
    assert not c.apply(transition, extents, ["odd"])
    assert _state(c) == before


def test_apply_declines_a_block_that_is_not_live():
    """A run freeing a block already freed declines; through the doors the
    same run raises ``InvalidFreeError``."""
    c = make()
    extents = [c.alloc(4096, "x")]
    c.free(extents[0])
    transition = Transition([~0], 1, [4096])
    before = _state(c)
    assert not c.apply(transition, extents, ["x"])
    assert _state(c) == before
    with pytest.raises(InvalidFreeError):
        _each(c, [~0], 1, extents, ["x"])


# -- placement golden: what peaks do not show ------------------------------------

# sha256 over "size,tag,pool,offset;" of every allocation of two steps of a
# shrunk C4 job (MD on, a 512 KiB region that fills), computed at the commit
# before the size-class cache (0c84923). The roomy device flushes once and
# fits; the tight one flushes three times and ends in a FragmentationError.
_PLACEMENT_GOLDEN = {
    80_000_000: (True, 834, "b0dff6724469661b1d2511a01c96eea0ba2dbd8d0464a34da89777e54f094bdd"),
    74_000_000: (False, 830, "b1cfdc8f1258d2474828360f5794fecd6d7e1c26189bd4accba75634843e8f66"),
}


@pytest.mark.parametrize("capacity", sorted(_PLACEMENT_GOLDEN))
def test_meta_step_placement_matches_the_golden_stream(capacity, monkeypatch):
    from repro.experiments.common import meta_engine
    from repro.hardware.specs import GPUSpec
    from repro.nn.transformer import GPTConfig
    from repro.runtime import virtual_rank_context
    from repro.zero.config import C4

    digest, count = hashlib.sha256(), [0]

    class Placements:
        """Notes each allocation of the job's one device at its door."""

        def _alloc(self, extent, size, tag):
            digest.update(f"{size},{tag},{extent.pool},{extent.offset};".encode())
            count[0] += 1

    watch_devices(monkeypatch, 0, lambda _: Placements())
    ctx = virtual_rank_context(16, gpu=GPUSpec("tiny", capacity, 1e12))
    oom_reason = ""
    try:
        engine, ids, targets = meta_engine(
            ctx, GPTConfig(n_layers=4, hidden=512, n_heads=8, vocab_size=4096), C4,
            mp=4, batch=4, seq_len=128, md_region_bytes=512 * KB,
        )
        for _ in range(2):
            engine.train_step(ids, targets)
    except OutOfMemoryError as exc:
        oom_reason = type(exc).__name__
    fits, n_allocs, want = _PLACEMENT_GOLDEN[capacity]
    assert oom_reason == ("" if fits else "FragmentationError")
    assert (count[0], digest.hexdigest()) == (n_allocs, want)
