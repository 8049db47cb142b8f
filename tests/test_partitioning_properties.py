"""Hypothesis property tests on the partitioning math underlying ZeRO."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, GPTConfig, ZeROConfig
from repro.hardware.specs import GPUSpec
from repro.nn.layers import make_param
from repro.optim.flat import FlatLayout, GradRecord, plan_segments
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


# -- bisected range lookups and the segment plan --------------------------------


def _random_layout(rng, *, values=False, pad_multiple=None):
    sizes = rng.integers(1, 5001, size=rng.integers(1, 41))
    params = [make_param(f"p{i}", (int(s),), init="zeros", dtype=np.float32)
              for i, s in enumerate(sizes)]
    if values:
        for p in params:
            p.data.data = rng.standard_normal(p.shape).astype(np.float32)
            p.grad = Tensor.from_numpy(rng.standard_normal(p.shape).astype(np.float32))
    return FlatLayout(params, pad_multiple=pad_multiple or int(rng.integers(1, 65)))


def _random_ranges(rng, layout, n=40):
    """Ranges anywhere in the padded space — zero-size, mid-parameter, ending
    in or lying wholly inside the pad tail — plus the fixed corner cases."""
    numel = layout.numel
    ranges = [(0, 0), (0, numel), (numel, numel), (layout.numel_unpadded, numel),
              (max(layout.numel_unpadded - 1, 0), numel)]
    for _ in range(n):
        lo = int(rng.integers(0, numel + 1))
        ranges.append((lo, int(rng.integers(lo, numel + 1))))
    return ranges


def _scanned_overlaps(layout, lo, hi):
    """The all-slots scan the layout used before bisection — the oracle."""
    return [
        (i, max(s.offset, lo), min(s.end, hi))
        for i, s in enumerate(layout.slots)
        if max(s.offset, lo) < min(s.end, hi)
    ]


class TestFlatLayoutBisection:
    @pytest.mark.parametrize("seed", range(12))
    def test_bisected_slots_are_the_scanned_slots(self, seed):
        rng = np.random.default_rng(seed)
        layout = _random_layout(rng)
        for lo, hi in _random_ranges(rng, layout):
            scanned = [s for s in layout.slots if s.offset < hi and s.end > lo]
            assert [layout.slots[i] for i in layout._overlapping(lo, hi)] == scanned

    @pytest.mark.parametrize("seed", range(12))
    def test_range_gather_and_scatter_match_the_scan_and_round_trip(self, seed):
        rng = np.random.default_rng(100 + seed)
        layout = _random_layout(rng, values=True)
        full_p, full_g = layout.gather_params(np.float32), layout.gather_grads(np.float32)
        for lo, hi in _random_ranges(rng, layout, n=12):
            got_p = layout.gather_param_range(lo, hi, np.float32)
            got_g = layout.gather_grad_range(lo, hi, np.float32)
            want_p, want_g = np.zeros(hi - lo, np.float32), np.zeros(hi - lo, np.float32)
            for i, a, b in _scanned_overlaps(layout, lo, hi):
                p, s = layout.parameters[i], layout.slots[i]
                want_p[a - lo : b - lo] = p.data.numpy()[a - s.offset : b - s.offset]
                want_g[a - lo : b - lo] = p.grad.numpy()[a - s.offset : b - s.offset]
            for got, want, full in ((got_p, want_p, full_p), (got_g, want_g, full_g)):
                assert got.dtype == np.float32
                assert got.tobytes() == want.tobytes() == full[lo:hi].tobytes()
            # Scatter other values over the range, check only it moved, put
            # the gathered ones back: bit for bit where it started.
            layout.scatter_param_range(got_p + 1.0, lo, hi)
            moved_p = layout.gather_params(np.float32)
            covered = np.zeros(layout.numel, bool)
            covered[lo:min(hi, layout.numel_unpadded)] = True
            np.testing.assert_array_equal(moved_p[~covered], full_p[~covered])
            np.testing.assert_array_equal(moved_p[covered], full_p[covered] + 1.0)
            layout.scatter_param_range(got_p, lo, hi)
            assert layout.gather_params(np.float32).tobytes() == full_p.tobytes()

    def test_missing_gradients_keep_their_contract(self):
        layout = _random_layout(np.random.default_rng(7), values=True)
        victim = layout.parameters[len(layout.parameters) // 2]
        slot = layout.slot(victim.name)
        victim.grad = None
        with pytest.raises(ValueError, match=f"parameter {victim.name} has no gradient"):
            layout.gather_grad_range(slot.offset, slot.end, np.float32)
        piece = layout.gather_grad_range(slot.offset, slot.end, np.float64, missing_ok=True)
        assert piece.dtype == np.float64 and not piece.any()
        with pytest.raises(ValueError, match="piece shape"):
            layout.scatter_param_range(np.ones(3, np.float32), 0, 2)


class TestSegmentPlan:
    @pytest.mark.parametrize("seed", range(12))
    def test_a_fixed_record_sends_each_owner_one_run_of_its_buffer(self, seed):
        """A bucket in any ready order, fixed: its buffer holds the
        gradients in layout order, each gradient is a view of it, and each
        owner's message is one run of it — what a range gather of that
        owner's pieces reads."""
        rng = np.random.default_rng(200 + seed)
        nd = int(rng.integers(1, 17))
        layout = _random_layout(rng, pad_multiple=nd)
        params = layout.parameters
        ranks = tuple(range(3, 3 + 2 * nd, 2))  # global ranks are not group indexes
        my_index = int(rng.integers(0, nd))
        for _ in range(6):
            bucket = [params[i] for i in rng.permutation(len(params))[: rng.integers(1, len(params) + 1)]]
            for p in bucket:
                p.grad = Tensor.from_numpy(rng.standard_normal(p.shape).astype(np.float32))
            held = {p.name: p.grad.data.copy() for p in bucket}
            record = GradRecord(bucket)
            ordered = record.fix(layout)
            plan = plan_segments(layout, ranks, my_index, 2, ordered)
            assert record.params == bucket  # released in ready order
            assert [layout.slot(p.name).offset for p in ordered] == sorted(
                layout.slot(p.name).offset for p in bucket
            )

            by_owner = {}
            for p in ordered:  # the derivation the engines ran every step
                slot = layout.slot(p.name)
                for owner, lo, hi in layout.owner_segments(nd, slot.offset, slot.end):
                    held_runs = by_owner.setdefault(owner, [])
                    if held_runs and held_runs[-1][1] == lo:
                        held_runs[-1] = (held_runs[-1][0], hi)
                    else:
                        held_runs.append((lo, hi))
            owners = sorted(by_owner)
            assert [seg.owner for seg in plan.segments] == owners
            assert [list(seg.pieces) for seg in plan.segments] == [by_owner[o] for o in owners]
            assert [seg.numel for seg in plan.segments] == [
                sum(hi - lo for lo, hi in by_owner[o]) for o in owners
            ]
            assert [seg.lo for seg in plan.segments] == [0] + [seg.hi for seg in plan.segments][:-1]
            assert plan.segments[-1].hi == record.numel == record.buffer.size
            assert plan.nbytes == tuple(2 * seg.numel for seg in plan.segments)
            assert plan.roots == tuple(ranks[o] for o in owners)
            assert plan.mine == (owners.index(my_index) if my_index in owners else None)

            for p in bucket:
                assert p.grad.data is p.grad_view
                assert np.shares_memory(p.grad_view, record.buffer)
                assert p.grad.data.tobytes() == held[p.name].tobytes()
            for seg in plan.segments:
                want = np.concatenate(
                    [layout.gather_grad_range(lo, hi, np.float32) for lo, hi in seg.pieces]
                )
                assert record.buffer[seg.lo : seg.hi].tobytes() == want.tobytes()
            for p in params:
                p.grad = p.grad_view = None
