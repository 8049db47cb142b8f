"""ZeRO-R Pa / Pa+cpu activation stores: exact round-trips, memory shapes,
host accounting, and end-to-end equivalence under MP training."""

import numpy as np
import pytest

from repro import Cluster, GPTConfig
from repro.hardware.specs import GPUSpec
from repro.nn.checkpoint import KeepStore
from repro.nn.transformer import GPT2Model
from repro.nn.module import ExecutionContext
from repro.tensor.tensor import Tensor
from repro.zero.activation import PartitionedCPUStore, PartitionedStore

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=64, max_seq_len=16)


def run_world(n, fn):
    return Cluster(n, gpu=GPU, timeout_s=60.0).run(fn)


class TestKeepStore:
    def test_stash_retrieve_same_tensor(self):
        store = KeepStore()
        t = Tensor.from_numpy(np.arange(4.0))
        handle = store.stash(t)
        assert store.retrieve(handle) is t
        assert store.returns_fresh_tensor is False
        store.discard(handle)
        assert t.freed


class TestPartitionedStore:
    def test_roundtrip_exact(self):
        payload = np.random.default_rng(0).standard_normal((2, 3, 8)).astype(np.float32)

        def fn(ctx):
            store = PartitionedStore(ctx.world, ctx)
            x = Tensor.from_numpy(payload.copy(), device=ctx.device)
            handle = store.stash(x)
            back = store.retrieve(handle)
            result = back.numpy().copy()
            back.free()
            store.discard(handle)
            return result

        for out in run_world(4, fn):
            np.testing.assert_array_equal(out, payload)

    def test_roundtrip_with_padding(self):
        # 2*3*5 = 30 elements does not divide by 4: padding path.
        payload = np.random.default_rng(1).standard_normal((2, 3, 5)).astype(np.float32)

        def fn(ctx):
            store = PartitionedStore(ctx.world, ctx)
            handle = store.stash(Tensor.from_numpy(payload.copy(), device=ctx.device))
            back = store.retrieve(handle)
            out = back.numpy().copy()
            back.free()
            store.discard(handle)
            return out

        for out in run_world(4, fn):
            np.testing.assert_array_equal(out, payload)

    def test_shard_memory_is_one_over_nm(self):
        def fn(ctx):
            store = PartitionedStore(ctx.world, ctx)
            before = ctx.device.allocated_bytes
            x = Tensor.from_numpy(np.zeros((4, 8, 8), np.float32), device=ctx.device)
            full = x.nbytes
            handle = store.stash(x)
            after = ctx.device.allocated_bytes
            store.discard(handle)
            return full, after - before

        for full, held in run_world(4, fn):
            assert held <= full // 4 + 512  # one shard plus alignment

    def test_stash_consumes_input(self):
        def fn(ctx):
            store = PartitionedStore(ctx.world, ctx)
            x = Tensor.from_numpy(np.zeros(16, np.float32), device=ctx.device)
            handle = store.stash(x)
            freed = x.freed
            store.discard(handle)
            return freed

        assert all(run_world(2, fn))

    def test_gather_volume_recorded(self):
        def fn(ctx):
            store = PartitionedStore(ctx.world, ctx)
            handle = store.stash(Tensor.from_numpy(np.zeros(64, np.float32), device=ctx.device))
            ctx.ledger.clear()
            store.retrieve(handle).free()
            store.discard(handle)
            return ctx.ledger.by_phase()

        phases = run_world(2, fn)[0]
        assert phases.get("activation-gather", 0) == 64 * 4  # nominal = message

    def test_meta_mode(self):
        def fn(ctx):
            store = PartitionedStore(ctx.world, ctx)
            x = Tensor.meta((4, 8), np.float16, device=ctx.device)
            handle = store.stash(x)
            back = store.retrieve(handle)
            ok = back.is_meta and back.shape == (4, 8)
            back.free()
            store.discard(handle)
            return ok

        assert all(run_world(2, fn))


class TestPartitionedCPUStore:
    def test_roundtrip_exact(self):
        payload = np.random.default_rng(2).standard_normal((2, 4, 4)).astype(np.float32)

        def fn(ctx):
            store = PartitionedCPUStore(ctx.world, ctx)
            handle = store.stash(Tensor.from_numpy(payload.copy(), device=ctx.device))
            back = store.retrieve(handle)
            out = back.numpy().copy()
            back.free()
            store.discard(handle)
            return out

        for out in run_world(2, fn):
            np.testing.assert_array_equal(out, payload)

    def test_device_memory_near_zero_between_passes(self):
        def fn(ctx):
            store = PartitionedCPUStore(ctx.world, ctx)
            before = ctx.device.allocated_bytes
            handle = store.stash(
                Tensor.from_numpy(np.zeros((8, 8), np.float32), device=ctx.device)
            )
            held_on_device = ctx.device.allocated_bytes - before
            held_on_host = ctx.host.allocated_bytes
            store.discard(handle)
            return held_on_device, held_on_host

        for on_device, on_host in run_world(2, fn):
            assert on_device == 0  # everything offloaded
            assert on_host > 0

    def test_host_freed_on_discard(self):
        def fn(ctx):
            store = PartitionedCPUStore(ctx.world, ctx)
            handle = store.stash(
                Tensor.from_numpy(np.zeros(64, np.float32), device=ctx.device)
            )
            store.discard(handle)
            return ctx.host.allocated_bytes

        assert run_world(2, fn) == [0, 0]

    def test_pcie_transfers_recorded(self):
        def fn(ctx):
            store = PartitionedCPUStore(ctx.world, ctx)
            ctx.ledger.clear()
            handle = store.stash(
                Tensor.from_numpy(np.zeros(64, np.float32), device=ctx.device)
            )
            store.retrieve(handle).free()
            store.discard(handle)
            return ctx.ledger.by_op()

        ops = run_world(2, fn)[0]
        shard_bytes = 64 * 4 // 2
        assert ops["d2h"] == shard_bytes
        assert ops["h2d"] == shard_bytes


class TestEndToEndWithMP:
    @pytest.mark.parametrize("store_kind", ["pa", "pa+cpu"])
    def test_pa_training_matches_keepstore(self, store_kind):
        """Partitioning checkpoints must not change a single gradient."""
        ids = np.random.default_rng(0).integers(0, 64, (2, 8))
        tgt = np.random.default_rng(1).integers(0, 64, (2, 8))

        def fn(ctx, kind):
            store = {
                "keep": lambda: KeepStore(),
                "pa": lambda: PartitionedStore(ctx.world, ctx),
                "pa+cpu": lambda: PartitionedCPUStore(ctx.world, ctx),
            }[kind]()
            rng = np.random.default_rng(0)
            model = GPT2Model(
                CFG, mp_group=ctx.world, rank=ctx.rank, dtype=np.float32, rng=rng,
                checkpoint_activations=True, activation_store=store,
            )
            loss_head = model.make_loss_head()
            logits, cache = model.forward(Tensor.from_numpy(ids), ExecutionContext())
            loss, lcache = loss_head.forward(logits, Tensor.from_numpy(tgt))
            d = loss_head.backward(lcache)
            model.backward(cache, d).free_if_alive()
            grads = {p.name: p.grad.numpy().copy() for p in model.parameters()}
            return float(loss.numpy()), grads

        ref = Cluster(2, gpu=GPU, timeout_s=60.0).run(lambda c: fn(c, "keep"))
        out = Cluster(2, gpu=GPU, timeout_s=60.0).run(lambda c: fn(c, store_kind))
        for (l0, g0), (l1, g1) in zip(ref, out):
            assert l0 == l1
            for name in g0:
                np.testing.assert_array_equal(g0[name], g1[name])
