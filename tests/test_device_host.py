"""Device, host memory, MD defrag routing, contiguous regions."""

import pytest

from repro.hardware.specs import GPUSpec
from repro.memsim.device import Device, HostMemory
from repro.memsim.errors import FragmentationError, InvalidFreeError, OutOfMemoryError

MB = 1024 * 1024
SPEC = GPUSpec("t", 64 * MB, 1e12)


def test_device_accounting_basics():
    d = Device(SPEC)
    e = d.alloc(1 * MB)
    assert d.allocated_bytes == 1 * MB
    assert d.free_bytes == SPEC.memory_bytes - 1 * MB
    d.free(e)
    assert d.allocated_bytes == 0
    assert d.reserved_bytes == 1 * MB  # cached
    assert d.max_reserved_bytes == 1 * MB


def test_device_without_cache():
    d = Device(SPEC, use_cache=False)
    e = d.alloc(1 * MB)
    d.free(e)
    assert d.reserved_bytes == 0


def test_tag_of_asks_the_pool_that_owns_the_extent():
    """An extent carries no tag; the pool that owns it answers for its live
    blocks — the caching heap, the MD region and an uncached device alike —
    and a cache hit hands back the cached block under its new owner's tag."""
    d = Device(SPEC)
    d.enable_defrag(1 * MB, lambda tag: tag.endswith(".grad"))
    heap, region = d.alloc(1000, "act"), d.alloc(1000, "w.grad")
    assert (heap.pool, region.pool) == ("main", "md")
    assert (d.tag_of(heap), d.tag_of(region)) == ("act", "w.grad")
    d.free(heap)
    reused = d.alloc(1000, "next")
    assert reused is heap and d.tag_of(reused) == "next"
    assert [b["tag"] for b in d.snapshot()["heap"]["live_blocks"]] == ["next"]
    assert [b["tag"] for b in d.snapshot()["md"]["live_blocks"]] == ["w.grad"]
    d.free(region)
    with pytest.raises(InvalidFreeError):
        d.tag_of(region)
    bare = Device(SPEC, use_cache=False)
    e = bare.alloc(1000, "raw")
    assert bare.tag_of(e) == "raw"
    bare.free(e)
    with pytest.raises(InvalidFreeError):
        bare.tag_of(e)


def test_host_memory_accounting():
    h = HostMemory(capacity=10 * MB)
    handle = h.alloc(4 * MB)
    assert h.allocated_bytes == 4 * MB
    h.free(handle)
    assert h.allocated_bytes == 0
    assert h.max_allocated_bytes == 4 * MB


def test_host_oom_and_double_free():
    h = HostMemory(capacity=1 * MB)
    with pytest.raises(OutOfMemoryError):
        h.alloc(2 * MB)
    handle = h.alloc(MB // 2)
    h.free(handle)
    with pytest.raises(InvalidFreeError):
        h.free(handle)


class TestMemoryDefrag:
    """ZeRO-R MD: long-lived tensors routed into a dedicated region."""

    def test_md_routes_matching_tags(self):
        d = Device(SPEC)
        d.enable_defrag(8 * MB, lambda tag: tag.endswith(".grad"))
        e_grad = d.alloc(1 * MB, tag="w.grad")
        e_act = d.alloc(1 * MB, tag="activation")
        assert e_grad.pool == "md"
        assert e_act.pool == "main"
        d.free(e_grad)
        d.free(e_act)

    def test_md_overflow_falls_back_to_heap(self):
        d = Device(SPEC)
        d.enable_defrag(1 * MB, lambda tag: tag.endswith(".grad"))
        big = d.alloc(2 * MB, tag="w.grad")  # doesn't fit the region
        assert big.pool == "main"
        d.free(big)

    def test_full_region_falls_through_without_raising_inside(self, monkeypatch):
        """A full region is an everyday event (82 times per 100B step), not
        an error: no OutOfMemoryError is built on the way to the heap."""
        built = []
        init = OutOfMemoryError.__init__
        monkeypatch.setattr(
            OutOfMemoryError, "__init__",
            lambda self, *a, **k: built.append(type(self)) or init(self, *a, **k),
        )
        d = Device(SPEC)
        d.enable_defrag(1 * MB, lambda tag: tag.endswith(".grad"))
        first = d.alloc(768 * 1024, tag="a.grad")
        second = d.alloc(512 * 1024, tag="b.grad")  # 256 KB left in the region
        assert (first.pool, second.pool) == ("md", "main")
        assert built == []
        # An error that escapes is still the typed, annotated one.
        with pytest.raises(OutOfMemoryError) as exc_info:
            d.alloc(128 * MB, tag="c.grad")
        assert built == [OutOfMemoryError]
        exc = exc_info.value
        assert (exc.requested, exc.capacity, exc.allocated) == (128 * MB, 64 * MB, d.allocated_bytes)
        assert exc.reserved == d.reserved_bytes and exc.largest_free == d.raw.largest_free_block

    def test_route_memo_lives_and_dies_with_the_predicate(self):
        d = Device(SPEC)
        asked = []
        d.enable_defrag(1 * MB, lambda tag: asked.append(tag) or tag.endswith(".grad"))
        for _ in range(3):
            grad, act = d.alloc(1000, tag="w.grad"), d.alloc(1000, tag="act")
            assert (grad.pool, act.pool) == ("md", "main")
            d.free(grad)
            d.free(act)
        assert asked == ["w.grad", "act"]  # once per tag string, not per call

    def test_md_prevents_fragmentation_oom(self):
        """The Section 6.3 scenario: interleaved short/long lifetimes
        fragment the heap without MD; with MD the same workload fits."""

        def run(with_md: bool) -> bool:
            d = Device(GPUSpec("t", 32 * MB, 1e12), use_cache=False)
            if with_md:
                d.enable_defrag(11 * MB, lambda tag: tag == "ckpt")
            try:
                long_lived = []
                for i in range(10):
                    # Growing short-lived buffer then a long-lived
                    # checkpoint: the interleaving strands checkpoints all
                    # over the heap (Section 6.3's scenario).
                    act = d.alloc((2 + i) * MB, tag="act")
                    long_lived.append(d.alloc(1 * MB, tag="ckpt"))
                    d.free(act)
                # Now a large contiguous request (e.g. a fused buffer).
                fused = d.alloc(14 * MB, tag="fused")
                d.free(fused)
                for e in long_lived:
                    d.free(e)
                return True
            except FragmentationError:
                return False

        assert run(with_md=False) is False
        assert run(with_md=True) is True

    def test_double_enable_rejected(self):
        d = Device(SPEC)
        d.enable_defrag(1 * MB, lambda tag: False)
        with pytest.raises(ValueError):
            d.enable_defrag(1 * MB, lambda tag: False)
