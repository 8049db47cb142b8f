"""A steady step leaves nothing for the garbage collector.

CPython's full collections rescan every tracked object that survives, so a
per-step host time only stays flat over a long run if a steady step adds
none. The comm ledger appends one shared ``CommEvent`` per distinct event
and a cache hit hands back the cached ``Extent`` itself, so after warm-up
the tracked heap holds the same number of objects of every type, step
after step.
"""

import gc
import threading
import time

import numpy as np
import pytest

from repro import Cluster, GPTConfig, ZeROConfig
from repro.comm.ledger import CommLedger
from repro.data import SyntheticCorpus
from repro.experiments.common import virtual_groups
from repro.hardware.specs import GPUSpec
from repro.memsim.device import Device
from repro.runtime import virtual_rank_context
from repro.tensor.tensor import Tensor
from repro.zero.config import C4
from repro.zero.factory import build_model_and_engine

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)
CENSUS_AFTER = (3, 7)


def _census(earlier: list[dict]) -> dict[str, int]:
    """Tracked objects by type name once the collector has freed what it
    can, leaving out the ``earlier`` censuses themselves. A plain loop: a
    ``Counter`` over a generator would fill ABC caches of its own."""
    gc.collect()
    skip = {id(c) for c in earlier}
    counts: dict[str, int] = {}
    for o in gc.get_objects():
        if id(o) not in skip:
            name = type(o).__qualname__
            counts[name] = counts.get(name, 0) + 1
    return counts


def _grown(first: dict[str, int], second: dict[str, int]) -> dict[str, int]:
    return {t: n - first.get(t, 0) for t, n in second.items() if n > first.get(t, 0)}


def _cluster_censuses(world: int, stage: int, *, meta: bool) -> list[dict[str, int]]:
    """Seven steps of a ``world``-rank job in one ``Cluster.run``; rank 0
    takes a census after steps 3 and 7 while its peers are parked.

    A peer parks by announcing itself and acquiring its own held lock. A
    bare ``acquire()`` builds no object, so the census reads the same
    whether a peer that has announced itself is blocked yet or not; a
    ``threading.Barrier`` would leave its ``wait_for`` closure in flight in
    some peers and not others."""
    cluster = Cluster(world, gpu=GPU, timeout_s=60.0)
    parked: list[int] = []
    held = [threading.Lock() for _ in range(world)]
    for lock in held:
        lock.acquire()  # a peer wakes from its lock only when rank 0 releases it
    censuses = []

    def take_census():
        deadline = time.monotonic() + 30.0
        while len(parked) < (world - 1) * (len(censuses) + 1):
            if time.monotonic() > deadline:
                raise TimeoutError("peers never parked")
            time.sleep(0.001)
        try:
            censuses.append(_census(censuses))
        finally:
            for lock in held[1:]:
                lock.release()

    def fn(ctx):
        _, engine = build_model_and_engine(
            ctx, CFG, ZeROConfig(stage=stage), dp_group=ctx.world,
            dtype=np.float32, seed=0, meta=meta,
        )
        for step in range(1, CENSUS_AFTER[-1] + 1):
            if meta:
                ids = Tensor.meta((2, 16), np.int64, device=ctx.device)
                tgt = Tensor.meta((2, 16), np.int64, device=ctx.device)
            else:
                ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
            engine.train_step(ids, tgt)
            if meta:
                ids.free()
                tgt.free()
            if step in CENSUS_AFTER:
                if ctx.rank == 0:
                    take_census()
                else:
                    parked.append(ctx.rank)
                    held[ctx.rank].acquire()

    cluster.run(fn)
    return censuses


def test_a_steady_stage3_meta_step_leaves_a_flat_heap():
    first, second = _cluster_censuses(4, 3, meta=True)
    assert _grown(first, second) == {}


def test_a_steady_stage2_real_step_leaves_a_flat_heap():
    first, second = _cluster_censuses(2, 2, meta=False)
    assert _grown(first, second) == {}


def test_a_steady_virtual_rank_mp_step_leaves_a_flat_heap():
    ctx = virtual_rank_context(16, gpu=GPU)
    dp, mp = virtual_groups(ctx, 16, 4)
    _, engine = build_model_and_engine(
        ctx, GPTConfig(n_layers=2, hidden=64, n_heads=4, vocab_size=256), C4,
        dp_group=dp, mp_group=mp, meta=True, md_region_bytes=1 << 20,
    )
    ids = Tensor.meta((2, 32), np.int64, device=ctx.device)
    tgt = Tensor.meta((2, 32), np.int64, device=ctx.device)
    censuses = []
    for step in range(1, CENSUS_AFTER[-1] + 1):
        engine.train_step(ids, tgt)
        if step in CENSUS_AFTER:
            censuses.append(_census(censuses))
    assert _grown(*censuses) == {}
    assert ctx.device._md_allocator.allocated_bytes > 0  # the MD path ran


@pytest.mark.parametrize("stage", [0, 1, 2, 3])
def test_a_steady_real_step_leaves_no_cyclic_garbage(stage):
    """Steps run with the collector off leave nothing only it could free.
    The census cannot see this: it collects first, so a reference cycle
    that is freed at the next collection reads as a flat heap while every
    object it holds waits for that collection."""
    cluster = Cluster(2, gpu=GPU, timeout_s=60.0)
    engines = [None, None]

    def build_and_warm(ctx):
        _, engines[ctx.rank] = build_model_and_engine(
            ctx, CFG, ZeROConfig(stage=stage), dp_group=ctx.world, dtype=np.float32, seed=0,
        )
        for step in range(1, CENSUS_AFTER[0] + 1):
            engines[ctx.rank].train_step(*CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step))

    def steady(ctx):
        for step in range(CENSUS_AFTER[0] + 1, CENSUS_AFTER[-1] + 1):
            engines[ctx.rank].train_step(*CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step))

    cluster.run(build_and_warm)
    gc.collect()
    gc.disable()
    try:
        cluster.run(steady)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


# -- per-event budgets ---------------------------------------------------------


def test_cache_hits_and_repeated_collectives_build_no_tracked_object():
    """``gc.get_count()[0]`` counts tracked allocations net of frees: held
    cache hits of a warm size and records of a repeated collective must
    add none (each added one per event while a hit re-tagged a new
    ``Extent`` and every record built its own ``CommEvent``)."""
    device, ledger, ranks = Device(GPU), CommLedger(0), tuple(range(8))
    warm = [device.alloc(4096, "warm") for _ in range(256)]
    for extent in warm:
        device.free(extent)
    ledger.record("all_gather", 1 << 20, ranks, "param-allgather")
    held = []
    gc.disable()
    try:
        n0 = gc.get_count()[0]
        for _ in range(256):
            held.append(device.alloc(4096, "hit"))
        n1 = gc.get_count()[0]
        for _ in range(256):
            ledger.record("all_gather", 1 << 20, ranks, "param-allgather")
        n2 = gc.get_count()[0]
    finally:
        gc.enable()
    assert (n1 - n0, n2 - n1) == (0, 0)
    assert sorted(map(id, held)) == sorted(map(id, warm))  # the cached blocks themselves
    assert device.cache.stats().n_cache_hits == 256
    assert len(ledger.events) == 257 and len({id(e) for e in ledger.events}) == 1
