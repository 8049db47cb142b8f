"""Collective semantics: NCCL/MPI definitions + cross-collective identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.specs import GPUSpec
from repro.runtime import Cluster

GPU = GPUSpec("t", 10**8, 1e12)


def run_world(n, fn):
    return Cluster(n, gpu=GPU, timeout_s=10.0).run(fn)


def per_rank_data(n, length, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(length).astype(np.float32) for _ in range(n)]


def test_all_reduce_sum():
    data = per_rank_data(4, 8)
    expected = np.sum(data, axis=0, dtype=np.float32)
    results = run_world(4, lambda ctx: ctx.world.all_reduce(ctx.rank, data[ctx.rank]))
    for r in results:
        np.testing.assert_allclose(r, expected, rtol=1e-6)


def test_all_reduce_deterministic_across_ranks():
    data = per_rank_data(4, 1000, seed=3)
    results = run_world(4, lambda ctx: ctx.world.all_reduce(ctx.rank, data[ctx.rank]))
    for r in results[1:]:
        np.testing.assert_array_equal(r, results[0])  # bitwise


@pytest.mark.parametrize("op,npop", [("max", np.max), ("min", np.min)])
def test_all_reduce_max_min(op, npop):
    data = per_rank_data(3, 6)
    expected = npop(np.stack(data), axis=0)
    results = run_world(3, lambda ctx: ctx.world.all_reduce(ctx.rank, data[ctx.rank], op=op))
    for r in results:
        np.testing.assert_allclose(r, expected)


def test_all_reduce_avg():
    data = per_rank_data(4, 6)
    expected = np.mean(np.stack(data), axis=0)
    results = run_world(4, lambda ctx: ctx.world.all_reduce(ctx.rank, data[ctx.rank], op="avg"))
    np.testing.assert_allclose(results[0], expected, rtol=1e-6)


def test_all_reduce_fp16_accumulates_in_fp32():
    # Values that overflow a naive fp16 chain-sum but not fp32.
    data = [np.full(4, 20000.0, np.float16) for _ in range(4)]
    results = run_world(4, lambda ctx: ctx.world.all_reduce(ctx.rank, data[ctx.rank]))
    assert np.all(np.isinf(results[0]))  # 80000 > fp16 max: inf after cast back
    small = [np.full(4, 0.0001, np.float16) for _ in range(4)]
    results = run_world(4, lambda ctx: ctx.world.all_reduce(ctx.rank, small[ctx.rank]))
    # fp32 accumulation keeps the small sum accurate before the final cast.
    np.testing.assert_allclose(results[0].astype(np.float32), 0.0004, rtol=1e-2)


def test_reduce_only_dst_receives():
    data = per_rank_data(4, 8)
    expected = np.sum(data, axis=0, dtype=np.float32)
    results = run_world(4, lambda ctx: ctx.world.reduce(ctx.rank, data[ctx.rank], dst=2))
    np.testing.assert_allclose(results[2], expected, rtol=1e-6)
    assert results[0] is None and results[1] is None and results[3] is None


def test_reduce_scatter_shards():
    data = per_rank_data(4, 16)
    total = np.sum(data, axis=0, dtype=np.float32)
    results = run_world(4, lambda ctx: ctx.world.reduce_scatter(ctx.rank, data[ctx.rank]))
    for rank, shard in enumerate(results):
        np.testing.assert_allclose(shard, total[rank * 4 : (rank + 1) * 4], rtol=1e-6)


def test_reduce_scatter_requires_divisible_length():
    def fn(ctx):
        return ctx.world.reduce_scatter(ctx.rank, np.ones(7, np.float32))

    with pytest.raises(Exception):
        run_world(4, fn)


def test_all_gather_concatenates_in_rank_order():
    results = run_world(
        4, lambda ctx: ctx.world.all_gather(ctx.rank, np.full(3, ctx.rank, np.float32))
    )
    expected = np.repeat(np.arange(4, dtype=np.float32), 3)
    for r in results:
        np.testing.assert_array_equal(r, expected)


def test_broadcast_from_each_src():
    for src in range(3):
        payload = np.arange(5, dtype=np.float32) + 100 * src

        def fn(ctx, s=src, p=payload):
            return ctx.world.broadcast(ctx.rank, p if ctx.rank == s else None, src=s)

        results = run_world(3, fn)
        for r in results:
            np.testing.assert_array_equal(r, payload)


def test_broadcast_receivers_get_private_copies():
    payload = np.zeros(4, np.float32)

    def fn(ctx):
        out = ctx.world.broadcast(ctx.rank, payload if ctx.rank == 0 else None, src=0)
        if ctx.rank == 1:
            out += 99  # must not corrupt other ranks' views
        ctx.barrier()
        return out.copy()

    results = run_world(3, fn)
    np.testing.assert_array_equal(results[2], np.zeros(4))


def test_allreduce_equals_reducescatter_then_allgather():
    """The identity Section 7.1 builds on: all-reduce = RS o AG."""
    data = per_rank_data(4, 16, seed=9)

    def fn(ctx):
        shard = ctx.world.reduce_scatter(ctx.rank, data[ctx.rank])
        composed = ctx.world.all_gather(ctx.rank, shard)
        direct = ctx.world.all_reduce(ctx.rank, data[ctx.rank])
        return composed, direct

    for composed, direct in run_world(4, fn):
        np.testing.assert_array_equal(composed, direct)


@settings(max_examples=10, deadline=None)
@given(
    length=st.integers(1, 32),
    world=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 1000),
)
def test_property_allgather_of_scatter_is_identity(length, world, seed):
    """Every rank keeps its own slice of a split array (the scatter is
    local — ``ProcessGroup`` has none); all-gather reassembles it."""
    rng = np.random.default_rng(seed)
    full = rng.standard_normal(length * world).astype(np.float32)
    pieces = [full[i * length : (i + 1) * length] for i in range(world)]

    def fn(ctx):
        return ctx.world.all_gather(ctx.rank, pieces[ctx.rank])

    for r in run_world(world, fn):
        np.testing.assert_array_equal(r, full)
