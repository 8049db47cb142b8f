"""Hypothesis property tests on the partitioning math underlying ZeRO."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, GPTConfig, ZeROConfig
from repro.hardware.specs import GPUSpec
from repro.nn.layers import make_param
from repro.optim.flat import FlatLayout
from repro.runtime import virtual_rank_context
from repro.tensor.tensor import Tensor
from repro.zero.factory import build_model_and_engine

GPU = GPUSpec("t", 10**9, 1e12)


def segments_of(numel, nd, lo, hi):
    """The engines' ownership math (``FlatLayout.owner_segments``) over a
    one-parameter layout of ``numel`` elements."""
    layout = FlatLayout([make_param("p", (numel,), init="zeros", dtype=np.float32)])
    assert layout.numel == numel
    return layout.owner_segments(nd, lo, hi)


class TestOwnerSegments:
    @settings(max_examples=80, deadline=None)
    @given(
        nd=st.integers(1, 16),
        chunks=st.integers(1, 50),
        data=st.data(),
    )
    def test_segments_partition_ranges_exactly(self, nd, chunks, data):
        numel = nd * data.draw(st.integers(1, 64))
        lo = data.draw(st.integers(0, numel - 1))
        hi = data.draw(st.integers(lo + 1, numel))
        segs = segments_of(numel, nd, lo, hi)
        # Coverage: segments tile [lo, hi) exactly, in order.
        cursor = lo
        for owner, a, b in segs:
            assert a == cursor and b > a
            cursor = b
            # Each segment lies wholly inside its owner's partition.
            size = numel // nd
            assert owner == a // size
            assert b <= (owner + 1) * size
        assert cursor == hi
        # Owners are non-decreasing and within range.
        owners = [o for o, _, _ in segs]
        assert owners == sorted(owners)
        assert all(0 <= o < nd for o in owners)
        del chunks

    @settings(max_examples=40, deadline=None)
    @given(nd=st.integers(1, 12), per=st.integers(1, 32))
    def test_full_space_splits_into_nd_equal_partitions(self, nd, per):
        numel = nd * per
        segs = segments_of(numel, nd, 0, numel)
        assert len(segs) == nd
        assert all(b - a == per for _, a, b in segs)


class TestEngineAgainstSegments:
    @settings(max_examples=10, deadline=None)
    @given(world=st.sampled_from([2, 3, 4]))
    def test_stage2_partition_bounds_consistent(self, world):
        cluster = Cluster(world, gpu=GPU, timeout_s=60.0)
        cfg = GPTConfig(n_layers=1, hidden=16, n_heads=2, vocab_size=31, max_seq_len=8)

        def fn(ctx):
            zero = ZeROConfig(stage=2, checkpoint_activations=False, memory_defrag=False)
            model, engine = build_model_and_engine(
                ctx, cfg, zero, dp_group=ctx.world, dtype=np.float32, seed=0,
            )
            return engine.part_lo, engine.part_hi, engine.layout.numel

        results = cluster.run(fn)
        numel = results[0][2]
        covered = sorted((lo, hi) for lo, hi, _ in results)
        assert covered[0][0] == 0 and covered[-1][1] == numel
        for (al, ah), (bl, bh) in zip(covered, covered[1:]):
            assert ah == bl  # contiguous, disjoint
        del ah


class TestPaRoundtripProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 9)),
        world=st.sampled_from([2, 3]),
        seed=st.integers(0, 99),
    )
    def test_partition_gather_is_identity_for_any_shape(self, shape, world, seed):
        """Pa must round-trip activations exactly, including non-divisible
        sizes that need padding."""
        payload = np.random.default_rng(seed).standard_normal(shape).astype(np.float32)
        cluster = Cluster(world, gpu=GPU, timeout_s=60.0)

        def fn(ctx):
            from repro.zero.activation import PartitionedStore

            store = PartitionedStore(ctx.world, ctx)
            handle = store.stash(Tensor.from_numpy(payload.copy(), device=ctx.device))
            back = store.retrieve(handle)
            out = back.numpy().copy()
            back.free()
            store.discard(handle)
            return out

        for out in cluster.run(fn):
            np.testing.assert_array_equal(out, payload)


class TestFlatLayoutGatherScatterProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 30), min_size=1, max_size=6),
        seed=st.integers(0, 999),
        lo_frac=st.floats(0, 0.9),
        hi_frac=st.floats(0.1, 1.0),
    )
    def test_range_gather_matches_full_gather(self, sizes, seed, lo_frac, hi_frac):
        params = [make_param(f"p{i}", (s,), init="zeros", dtype=np.float32)
                  for i, s in enumerate(sizes)]
        rng = np.random.default_rng(seed)
        for p in params:
            p.data.data = rng.standard_normal(p.shape).astype(np.float32)
        layout = FlatLayout(params)
        full = layout.gather_params(np.float32)
        lo = int(lo_frac * layout.numel)
        hi = max(lo + 1, int(hi_frac * layout.numel))
        hi = min(hi, layout.numel)
        piece = layout.gather_param_range(lo, hi, np.float32)
        np.testing.assert_array_equal(piece, full[lo:hi])


def test_virtual_rank_context_shape():
    ctx = virtual_rank_context(400, rank=0)
    assert ctx.world_size == 400
    assert ctx.world.size == 400
    assert ctx.device.spec.memory_gb == 32.0
    assert ctx.topology.n_nodes == 25
    ctx.world.meta_collective(0, "all_gather", 100, "x")
    assert ctx.ledger.nominal_bytes() == 100
