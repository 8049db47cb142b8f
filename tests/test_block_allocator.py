"""Raw block allocator: first-fit, coalescing, fragmentation semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.block_allocator import BlockAllocator, Extent
from repro.memsim.errors import FragmentationError, InvalidFreeError, OutOfMemoryError

KB = 1024


def make(capacity=64 * KB):
    return BlockAllocator(capacity, name="t")


def test_alloc_free_roundtrip_restores_capacity():
    a = make()
    e = a.alloc(10 * KB)
    assert a.allocated_bytes == 10 * KB
    a.free(e)
    assert a.allocated_bytes == 0
    assert a.largest_free_block == a.capacity


def test_alignment_rounds_up():
    a = make()
    e = a.alloc(1)
    assert e.size == 512
    assert a.allocated_bytes == 512


def test_first_fit_reuses_earliest_hole():
    a = make()
    e1 = a.alloc(1 * KB)
    e2 = a.alloc(1 * KB)
    e3 = a.alloc(1 * KB)
    a.free(e1)
    a.free(e3)
    e4 = a.alloc(512)
    assert e4.offset == e1.offset  # earliest hole wins
    del e2


def test_exhaustion_raises_oom():
    a = make(capacity=4 * KB)
    a.alloc(4 * KB)
    with pytest.raises(OutOfMemoryError):
        a.alloc(512)


def test_fragmentation_error_when_total_free_would_suffice():
    # Allocate 8 x 8KB, free alternating -> 32KB free but max hole 8KB.
    a = make(capacity=64 * KB)
    extents = [a.alloc(8 * KB) for _ in range(8)]
    for e in extents[::2]:
        a.free(e)
    assert a.free_bytes == 32 * KB
    with pytest.raises(FragmentationError) as exc_info:
        a.alloc(16 * KB)
    assert isinstance(exc_info.value, OutOfMemoryError)  # subtype relation
    assert exc_info.value.free == 32 * KB
    assert exc_info.value.largest_free == 8 * KB


def test_coalesce_heals_fragmentation():
    a = make(capacity=64 * KB)
    extents = [a.alloc(8 * KB) for _ in range(8)]
    for e in extents:
        a.free(e)
    # All free blocks coalesced back into one.
    assert a.largest_free_block == a.capacity
    a.alloc(64 * KB)  # must fit whole again


def test_double_free_raises():
    a = make()
    e = a.alloc(1 * KB)
    a.free(e)
    with pytest.raises(InvalidFreeError):
        a.free(e)


def test_foreign_extent_free_raises():
    a, b = make(), make()
    e = a.alloc(1 * KB)
    with pytest.raises(InvalidFreeError):
        b.free(e)


def test_stats_fragmentation_ratio():
    a = make(capacity=64 * KB)
    extents = [a.alloc(8 * KB) for _ in range(8)]
    for e in extents[::2]:
        a.free(e)
    s = a.stats()
    assert s.external_fragmentation == pytest.approx(1 - 8 / 32)
    assert s.n_free_blocks == 4


def test_zero_or_negative_alloc_rejected():
    a = make()
    with pytest.raises(ValueError):
        a.alloc(0)
    with pytest.raises(ValueError):
        a.alloc(-5)


def test_bad_construction_rejected():
    with pytest.raises(ValueError):
        BlockAllocator(0)


def test_tags_preserved():
    a = make()
    e = a.alloc(1 * KB, tag="weights")
    assert a.tag_of(e) == "weights"
    assert a.tag_of(a.live_extents()[0]) == "weights"


def test_extent_is_an_immutable_record():
    e = Extent(handle=7, offset=1024, size=512)
    assert (e.handle, e.offset, e.size, e.pool) == (7, 1024, 512, "main")
    assert e.end == 1536
    assert Extent(7, 1024, 512, "md") == Extent(handle=7, offset=1024, size=512, pool="md")
    assert e == Extent(7, 1024, 512) and hash(e) == hash(Extent(7, 1024, 512))
    assert e != Extent(7, 1024, 512, "md")
    for field in ("handle", "offset", "size", "pool", "end", "anything"):
        with pytest.raises(AttributeError):
            setattr(e, field, 1)
    with pytest.raises(TypeError):
        Extent(1, 0)  # handle, offset and size have no default


def test_try_alloc_says_none_where_alloc_raises():
    a = make(capacity=8 * KB)
    held = [a.alloc(2 * KB) for _ in range(4)]
    assert a.try_alloc(512) is None  # exhausted
    a.free(held[0])
    a.free(held[2])
    before = (a.free_segments(), a.allocated_bytes)
    assert a.try_alloc(3 * KB) is None  # 4 KB free, no 3 KB hole
    assert (a.free_segments(), a.allocated_bytes) == before
    with pytest.raises(FragmentationError):
        a.alloc(3 * KB)
    got = a.try_alloc(2 * KB, tag="fits")
    assert (got.offset, got.size, a.tag_of(got)) == (held[0].offset, 2 * KB, "fits")
    with pytest.raises(ValueError):
        a.try_alloc(0)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["alloc", "free"]), st.integers(1, 8 * KB)),
        min_size=1,
        max_size=120,
    )
)
def test_invariants_hold_under_random_workload(ops):
    """Property: region map always covers [0, capacity) without overlap,
    the free list stays coalesced, counters stay in sync."""
    a = make(capacity=128 * KB)
    live = []
    for kind, size in ops:
        if kind == "alloc":
            try:
                live.append(a.alloc(size))
            except OutOfMemoryError:
                pass
        elif live:
            a.free(live.pop(size % len(live)))
        a.check_invariants()
    for e in live:
        a.free(e)
    a.check_invariants()
    assert a.allocated_bytes == 0


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(1, 4 * KB), min_size=1, max_size=50))
def test_allocated_bytes_equals_sum_of_aligned_sizes(sizes):
    a = make(capacity=1024 * KB)
    extents = [a.alloc(s) for s in sizes]
    assert a.allocated_bytes == sum(a.aligned(s) for s in sizes)
    for e in extents:
        a.free(e)
    assert a.free_bytes == a.capacity
