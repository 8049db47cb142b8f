"""Optimizers: Adam math, loss scaler, flat layout, mixed-precision state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.specs import GPUSpec
from repro.memsim.device import Device
from repro.nn.layers import Linear, make_param
from repro.nn.module import ExecutionContext
from repro.optim.adam import Adam, AdamHyperparams, adam_step_inplace
from repro.optim.flat import FlatLayout
from repro.optim.mixed_precision import ADAM_K, FlatAdamState, MixedPrecisionAdam
from repro.optim.scaler import GROWTH_INTERVAL, MAX_SCALE, MIN_SCALE, LossScaler
from repro.tensor.tensor import Tensor

SPEC = GPUSpec("t", 256 * 1024 * 1024, 1e12)


def reference_adam(params, grads_seq, hp):
    """Straightforward textbook Adam for cross-checking."""
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    p = params.copy()
    for t, g in enumerate(grads_seq, start=1):
        m = hp.beta1 * m + (1 - hp.beta1) * g
        v = hp.beta2 * v + (1 - hp.beta2) * g * g
        mhat = m / (1 - hp.beta1**t)
        vhat = v / (1 - hp.beta2**t)
        p = p - hp.lr * (mhat / (np.sqrt(vhat) + hp.eps) + hp.weight_decay * p)
    return p


class TestAdamMath:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 9999), steps=st.integers(1, 5), wd=st.sampled_from([0.0, 0.01]))
    def test_matches_reference(self, seed, steps, wd):
        rng = np.random.default_rng(seed)
        hp = AdamHyperparams(lr=1e-2, weight_decay=wd)
        p0 = rng.standard_normal(16).astype(np.float32)
        grads = [rng.standard_normal(16).astype(np.float32) for _ in range(steps)]
        master = p0.copy()
        m = np.zeros_like(master)
        v = np.zeros_like(master)
        for t, g in enumerate(grads, start=1):
            adam_step_inplace(master, m, v, g, t, hp)
        np.testing.assert_allclose(master, reference_adam(p0, grads, hp), rtol=1e-5, atol=1e-7)

    def test_step_must_be_positive(self):
        a = np.zeros(2, np.float32)
        with pytest.raises(ValueError):
            adam_step_inplace(a, a.copy(), a.copy(), a.copy(), 0, AdamHyperparams())

    def test_shape_mismatch(self):
        a = np.zeros(2, np.float32)
        with pytest.raises(ValueError, match="shape"):
            adam_step_inplace(a, a.copy(), a.copy(), np.zeros(3, np.float32), 1, AdamHyperparams())

    def test_adam_reduces_quadratic_loss(self):
        rng = np.random.default_rng(0)
        lin = Linear("l", 4, 1, dtype=np.float32, rng=rng)
        opt = Adam(lin.parameters())
        target = np.array([[1.0]], np.float32)
        x = rng.standard_normal((1, 4)).astype(np.float32)
        losses = []
        for _ in range(600):  # the default lr (1e-3) moves ~1e-3 a step
            y, cache = lin.forward(Tensor.from_numpy(x), ExecutionContext())
            err = y.numpy() - target
            losses.append(float((err**2).sum()))
            lin.backward(cache, Tensor.from_numpy(2 * err))
            opt.step()
            opt.zero_grad()
        assert losses[-1] < losses[0] * 1e-3


class TestLossScaler:
    def test_static_scale_skips_on_overflow_but_keeps_scale(self):
        s = LossScaler(1024, dynamic=False)
        assert s.update(overflow=True) is False
        assert s.scale == 1024
        assert s.update(overflow=False) is True

    def test_dynamic_backoff_and_growth(self):
        s = LossScaler(1024, dynamic=True)
        s.update(True)
        assert s.scale == 512
        for _ in range(GROWTH_INTERVAL - 1):
            s.update(False)
        assert s.scale == 512
        s.update(False)
        assert s.scale == 1024  # grew after GROWTH_INTERVAL clean steps

    def test_scale_bounds(self):
        s = LossScaler(2.0 * MIN_SCALE, dynamic=True)
        s.update(True)
        s.update(True)
        assert s.scale == MIN_SCALE  # clamped at min
        s = LossScaler(MAX_SCALE / 2, dynamic=True)
        for _ in range(2 * GROWTH_INTERVAL):
            s.update(False)
        assert s.scale == MAX_SCALE  # clamped at max

    def test_overflow_detection(self):
        assert LossScaler.has_overflow(np.array([1.0, np.inf]))
        assert LossScaler.has_overflow(np.array([np.nan]))
        assert not LossScaler.has_overflow(np.array([1e30]))

    def test_overflow_detection_each_nonfinite_kind_alone(self):
        """NaN-only, +Inf-only, and -Inf-only gradients must each trip the
        overflow check on their own (the integrity sentinels rely on this
        taxonomy: non-finite -> overflow path, finite spike -> corruption)."""
        finite = np.full(7, 1e-3, dtype=np.float32)
        for bad in (np.nan, np.inf, -np.inf):
            grad = finite.copy()
            grad[3] = bad
            assert LossScaler.has_overflow(grad), bad
        assert not LossScaler.has_overflow(finite)
        assert not LossScaler.has_overflow(np.array([np.finfo(np.float16).max]))

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            LossScaler(0)


class TestFlatLayout:
    def make_params(self, sizes=(5, 3, 7), dtype=np.float32):
        return [
            make_param(f"p{i}", (s,), dtype=dtype, init="zeros")
            for i, s in enumerate(sizes)
        ]

    def test_offsets_contiguous(self):
        layout = FlatLayout(self.make_params())
        assert [(s.offset, s.end) for s in layout.slots] == [(0, 5), (5, 8), (8, 15)]
        assert layout.numel_unpadded == 15

    def test_padding_to_multiple(self):
        layout = FlatLayout(self.make_params(), pad_multiple=4)
        assert layout.numel == 16
        lo, hi = layout.partition_bounds(4, 3)
        assert (lo, hi) == (12, 16)

    def test_partition_requires_divisibility(self):
        layout = FlatLayout(self.make_params())
        with pytest.raises(ValueError, match="divisible"):
            layout.partition_bounds(4, 0)

    def test_gather_scatter_roundtrip(self):
        params = self.make_params()
        rng = np.random.default_rng(0)
        for p in params:
            p.data.data = rng.standard_normal(p.shape).astype(np.float32)
        layout = FlatLayout(params, pad_multiple=4)
        flat = layout.gather_params(np.float32)
        for p in params:
            p.data.data = np.zeros(p.shape, np.float32)
        layout.scatter_params(flat)
        for p, s in zip(params, layout.slots):
            np.testing.assert_array_equal(p.data.numpy(), flat[s.offset : s.end])

    def test_range_ops(self):
        params = self.make_params()
        layout = FlatLayout(params)
        layout.scatter_param_range(np.full(6, 9.0, np.float32), 3, 9)
        np.testing.assert_array_equal(params[0].data.numpy(), [0, 0, 0, 9, 9])
        np.testing.assert_array_equal(params[1].data.numpy(), [9, 9, 9])
        np.testing.assert_array_equal(params[2].data.numpy(), [9] + [0] * 6)
        piece = layout.gather_param_range(3, 9)
        np.testing.assert_array_equal(piece, np.full(6, 9.0))

    def test_grad_range_missing(self):
        params = self.make_params()
        layout = FlatLayout(params)
        with pytest.raises(ValueError, match="no gradient"):
            layout.gather_grad_range(0, 5)
        np.testing.assert_array_equal(
            layout.gather_grad_range(0, 5, missing_ok=True), np.zeros(5)
        )

    def test_slots_in_range(self):
        layout = FlatLayout(self.make_params())
        def names(lo, hi):
            return [layout.slots[i].name for i in layout._overlapping(lo, hi)]

        assert names(4, 9) == ["p0", "p1", "p2"]
        assert names(5, 8) == ["p1"]

    def test_duplicate_names_rejected(self):
        p = make_param("same", (2,), init="zeros")
        q = make_param("same", (2,), init="zeros")
        with pytest.raises(ValueError, match="duplicate"):
            FlatLayout([p, q])

    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 20), min_size=1, max_size=8),
        pad=st.sampled_from([1, 2, 4, 8]),
        seed=st.integers(0, 999),
    )
    def test_property_scatter_range_union_is_scatter(self, sizes, pad, seed):
        """Scattering all partitions piecewise == scattering the whole vector."""
        params_a = [make_param(f"p{i}", (s,), init="zeros") for i, s in enumerate(sizes)]
        params_b = [make_param(f"p{i}", (s,), init="zeros") for i, s in enumerate(sizes)]
        layout_a = FlatLayout(params_a, pad_multiple=pad)
        layout_b = FlatLayout(params_b, pad_multiple=pad)
        flat = np.random.default_rng(seed).standard_normal(layout_a.numel).astype(np.float32)
        layout_a.scatter_params(flat)
        for i in range(pad):
            lo, hi = layout_b.partition_bounds(pad, i)
            layout_b.scatter_param_range(flat[lo:hi], lo, hi)
        for pa, pb in zip(params_a, params_b):
            np.testing.assert_array_equal(pa.data.numpy(), pb.data.numpy())


class TestFlatAdamState:
    def test_k12_memory_footprint(self):
        d = Device(SPEC)
        state = FlatAdamState(1000, device=d)
        assert ADAM_K == 12
        assert state.nbytes == 12 * 1000  # 3 x fp32
        assert d.allocated_bytes >= state.nbytes
        state.free()
        assert d.allocated_bytes == 0

    def test_meta_state_reserves_without_data(self):
        d = Device(SPEC)
        state = FlatAdamState(1000, device=d, meta=True)
        assert state.is_meta
        assert d.allocated_bytes >= 12 * 1000
        assert state.step(None) is None
        state.free()

    def test_step_updates_master(self):
        state = FlatAdamState(4, hp=AdamHyperparams(lr=0.1))
        state.init_master(np.ones(4, np.float32))
        out = state.step(np.ones(4, np.float32))
        assert np.all(out < 1.0)  # moved against the gradient

    def test_init_master_validation(self):
        state = FlatAdamState(4)
        with pytest.raises(ValueError):
            state.init_master(np.ones(5, np.float32))


class TestMixedPrecisionAdam:
    def test_full_replica_matches_eager_adam(self):
        rng1 = np.random.default_rng(0)
        rng2 = np.random.default_rng(0)
        lin1 = Linear("l", 6, 6, dtype=np.float32, rng=rng1)
        lin2 = Linear("l", 6, 6, dtype=np.float32, rng=rng2)
        mp = MixedPrecisionAdam(lin1)
        eager = Adam(lin2.parameters())
        g = np.random.default_rng(1).standard_normal((6, 6)).astype(np.float32)
        for _ in range(3):
            lin1.weight.accumulate_grad(Tensor.from_numpy(g))
            lin1.bias.accumulate_grad(Tensor.from_numpy(g[0]))
            lin2.weight.accumulate_grad(Tensor.from_numpy(g))
            lin2.bias.accumulate_grad(Tensor.from_numpy(g[0]))
            mp.step()
            mp.zero_grad()
            eager.step()
            eager.zero_grad()
        np.testing.assert_allclose(
            lin1.weight.data.numpy(), lin2.weight.data.numpy(), rtol=1e-6
        )

    def test_overflow_skips_update(self):
        rng = np.random.default_rng(0)
        lin = Linear("l", 4, 4, dtype=np.float32, rng=rng)
        mp = MixedPrecisionAdam(lin)
        before = lin.weight.data.numpy().copy()
        bad = np.full((4, 4), np.inf, np.float32)
        lin.weight.accumulate_grad(Tensor.from_numpy(bad))
        lin.bias.accumulate_grad(Tensor.from_numpy(np.zeros(4, np.float32)))
        assert mp.step() is False
        np.testing.assert_array_equal(lin.weight.data.numpy(), before)
        assert mp.loss_scale == 1.0  # a static scale stays put
