"""Primitive ops: forward values, backward gradchecks, meta propagation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


def t64(a):
    return Tensor.from_numpy(np.asarray(a, dtype=np.float64))


def numerical_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f wrt numpy array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


class TestShapeOps:
    def test_reshape_values_and_view(self):
        x = t64(np.arange(12).reshape(3, 4))
        y = F.reshape(x, (2, 6))
        np.testing.assert_array_equal(y.numpy().reshape(-1), np.arange(12))
        assert y.extent is None  # view: no allocation

    def test_reshape_infer_dim(self):
        x = t64(np.arange(12))
        assert F.reshape(x, (3, -1)).shape == (3, 4)

    def test_reshape_bad_size(self):
        with pytest.raises(ValueError):
            F.reshape(t64(np.arange(12)), (5, 3))

    def test_transpose(self):
        x = t64(np.arange(6).reshape(2, 3))
        y = F.transpose(x, (1, 0))
        np.testing.assert_array_equal(y.numpy(), x.numpy().T)

    def test_index_and_stack_axis0_roundtrip(self):
        x = t64(np.arange(24).reshape(3, 2, 4))
        parts = [F.index_axis0(x, i) for i in range(3)]
        back = F.stack_axis0(parts)
        np.testing.assert_array_equal(back.numpy(), x.numpy())

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            F.index_axis0(t64(np.zeros((2, 2))), 2)



class TestMatmul:
    def test_values(self):
        a, b = t64(np.ones((2, 3))), t64(np.full((3, 4), 2.0))
        np.testing.assert_array_equal(F.matmul(a, b).numpy(), np.full((2, 4), 6.0))

    def test_batched_broadcast(self):
        a = t64(np.random.default_rng(0).standard_normal((5, 2, 3)))
        b = t64(np.random.default_rng(1).standard_normal((3, 4)))
        y = F.matmul(a, b)
        assert y.shape == (5, 2, 4)
        np.testing.assert_allclose(y.numpy(), a.numpy() @ b.numpy())

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            F.matmul(t64(np.zeros((2, 3))), t64(np.zeros((4, 5))))

    def test_fp16_accumulates_in_fp32(self):
        # 2048 x (1/2048) in fp16: naive fp16 accumulation loses most of it.
        n = 2048
        a = Tensor.from_numpy(np.full((1, n), 1.0, np.float16))
        b = Tensor.from_numpy(np.full((n, 1), 1.0 / n, np.float16))
        y = F.matmul(a, b)
        assert y.dtype == np.float16
        assert float(y.numpy()[0, 0]) == pytest.approx(1.0, rel=1e-3)


class TestElementwise:
    def test_add_broadcast(self):
        y = F.add(t64(np.ones((2, 3))), t64(np.arange(3.0)))
        assert y.shape == (2, 3)
        np.testing.assert_array_equal(y.numpy(), np.tile(1 + np.arange(3.0), (2, 1)))

    def test_scale(self):
        y = F.scale(t64([2.0, -4.0]), 0.5)
        np.testing.assert_array_equal(y.numpy(), [1.0, -2.0])

    def test_sum_to_leading_and_broadcast_dims(self):
        x = t64(np.ones((4, 3, 5)))
        np.testing.assert_array_equal(F.sum_to(x, (5,)).numpy(), np.full(5, 12.0))
        np.testing.assert_array_equal(
            F.sum_to(x, (1, 3, 5)).numpy(), np.full((1, 3, 5), 4.0)
        )

    def test_sum_to_incompatible(self):
        with pytest.raises(ValueError):
            F.sum_to(t64(np.ones((4, 3))), (2,))


class TestActivationGradchecks:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_gelu_grad(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 4))
        r = rng.standard_normal((3, 4))
        dy = F.gelu_grad(t64(x), t64(r))
        num = numerical_grad(lambda xv: float((F.gelu(t64(xv)).numpy() * r).sum()), x)
        np.testing.assert_allclose(dy.numpy(), num, atol=1e-7)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_softmax_grad(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 5))
        r = rng.standard_normal((2, 5))
        y = F.softmax(t64(x))
        dx = F.softmax_grad(y, t64(r))
        num = numerical_grad(lambda xv: float((F.softmax(t64(xv)).numpy() * r).sum()), x)
        np.testing.assert_allclose(dx.numpy(), num, atol=1e-7)

    def test_softmax_rows_sum_to_one(self):
        y = F.softmax(t64(np.random.default_rng(0).standard_normal((4, 7)) * 10))
        np.testing.assert_allclose(y.numpy().sum(axis=-1), 1.0, rtol=1e-12)

    def test_softmax_stable_for_large_inputs(self):
        y = F.softmax(Tensor.from_numpy(np.array([[1e4, 1e4 - 1]], np.float32)))
        assert np.all(np.isfinite(y.numpy()))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_layernorm_grads(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 8))
        gamma = rng.standard_normal(8)
        beta = rng.standard_normal(8)
        r = rng.standard_normal((3, 8))

        def loss(xv, gv=gamma, bv=beta):
            y, _, _ = F.layernorm(t64(xv), t64(gv), t64(bv))
            return float((y.numpy() * r).sum())

        y, mean, rstd = F.layernorm(t64(x), t64(gamma), t64(beta))
        dx, dgamma, dbeta = F.layernorm_grad(t64(x), t64(gamma), mean, rstd, t64(r))
        np.testing.assert_allclose(dx.numpy(), numerical_grad(lambda v: loss(v), x), atol=1e-6)
        np.testing.assert_allclose(
            dgamma.numpy(), numerical_grad(lambda g: loss(x, gv=g), gamma), atol=1e-6
        )
        np.testing.assert_allclose(
            dbeta.numpy(), numerical_grad(lambda b: loss(x, bv=b), beta), atol=1e-6
        )

    def test_layernorm_normalizes(self):
        x = t64(np.random.default_rng(0).standard_normal((5, 16)) * 3 + 7)
        y, _, _ = F.layernorm(x, t64(np.ones(16)), t64(np.zeros(16)))
        np.testing.assert_allclose(y.numpy().mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.numpy().std(axis=-1), 1.0, atol=1e-4)


class TestMask:
    def test_causal_mask_fills_future(self):
        x = t64(np.zeros((2, 3, 3)))
        y = F.causal_mask_fill(x)
        upper = np.triu(np.ones((3, 3), bool), k=1)
        assert np.all(y.numpy()[..., upper] == F.MASK_FILL)
        assert np.all(y.numpy()[..., ~upper] == 0.0)

    def test_causal_mask_zero_grad(self):
        g = t64(np.ones((3, 3)))
        z = F.causal_mask_zero_grad(g)
        assert z.numpy().sum() == 6.0  # lower triangle incl. diagonal

    def test_mask_requires_square(self):
        with pytest.raises(ValueError):
            F.causal_mask_fill(t64(np.zeros((2, 3))))


class TestEmbeddingAndXent:
    def test_embedding_lookup_and_grad(self):
        table = t64(np.arange(12.0).reshape(4, 3))
        ids = Tensor.from_numpy(np.array([[0, 2], [2, 3]], np.int64))
        y = F.embedding_lookup(table, ids)
        np.testing.assert_array_equal(y.numpy()[0, 1], [6, 7, 8])
        dy = t64(np.ones((2, 2, 3)))
        g = F.embedding_grad(table, ids, dy)
        # Row 2 appears twice -> grad 2 per element.
        np.testing.assert_array_equal(g.numpy()[2], [2, 2, 2])
        np.testing.assert_array_equal(g.numpy()[1], [0, 0, 0])

    def test_cross_entropy_matches_manual(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((5, 7)).astype(np.float32)
        targets = rng.integers(0, 7, 5)
        loss, probs = F.cross_entropy(
            Tensor.from_numpy(logits), Tensor.from_numpy(targets)
        )
        ref = -np.log(
            np.exp(logits - logits.max(-1, keepdims=True))
            / np.exp(logits - logits.max(-1, keepdims=True)).sum(-1, keepdims=True)
        )[np.arange(5), targets].mean()
        assert float(loss.numpy()) == pytest.approx(float(ref), rel=1e-5)

    def test_cross_entropy_grad(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((4, 6))
        targets = rng.integers(0, 6, 4)

        def loss_of(lv):
            loss, _ = F.cross_entropy(t64(lv), Tensor.from_numpy(targets))
            return float(loss.numpy())

        _, probs = F.cross_entropy(t64(logits), Tensor.from_numpy(targets))
        grad = F.cross_entropy_grad(probs, Tensor.from_numpy(targets), dtype=np.float64)
        np.testing.assert_allclose(grad.numpy(), numerical_grad(loss_of, logits), atol=1e-6)

    def test_uniform_logits_give_log_vocab(self):
        loss, _ = F.cross_entropy(
            Tensor.from_numpy(np.zeros((3, 10), np.float32)),
            Tensor.from_numpy(np.array([0, 5, 9], np.int64)),
        )
        assert float(loss.numpy()) == pytest.approx(np.log(10), rel=1e-6)


class TestMetaPropagation:
    """Every primitive must propagate meta-ness with correct shapes."""

    def test_meta_chain(self):
        x = Tensor.meta((2, 3, 8), np.float16)
        w = Tensor.meta((16, 8), np.float16)
        wt = F.transpose(w, (1, 0))
        y = F.matmul(x, wt)
        assert y.is_meta and y.shape == (2, 3, 16)
        g = F.gelu(y)
        assert g.is_meta and g.dtype == np.float16
        s = F.softmax(g)
        assert s.is_meta
        summed = F.sum_to(s, (16,))
        assert summed.is_meta and summed.shape == (16,)

    def test_meta_layernorm_and_xent(self):
        x = Tensor.meta((4, 8), np.float16)
        y, mean, rstd = F.layernorm(x, Tensor.meta((8,), np.float16), Tensor.meta((8,), np.float16))
        assert y.is_meta and mean.shape == (4, 1)
        loss, probs = F.cross_entropy(Tensor.meta((4, 10), np.float16), Tensor.meta((4,), np.int64))
        assert loss.is_meta and probs.shape == (4, 10)

    def test_meta_mixed_with_real_is_meta(self):
        a = Tensor.meta((2, 2), np.float32)
        b = Tensor.from_numpy(np.ones((2, 2), np.float32))
        assert F.add(a, b).is_meta
        assert F.matmul(b, a).is_meta


# -- the kernel rules (docs/ARCHITECTURE.md, "Numerics contract") -----------------

SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


def _ulps(got, ref64, scale):
    """|got - ref| in units of the fp32 spacing at ``scale``."""
    return np.abs(got.astype(np.float64) - ref64) / np.spacing(scale.astype(np.float32))


class TestGeluClosedForm:
    """fp32 GELU against the float64 closed form. 1 + tanh(u) cancels for
    negative x, so the error is measured in fp32 ULPs at the operand scale
    max(1, |x|), not at the (possibly tiny) output."""

    @pytest.mark.parametrize("spread", [1.0, 3.0])
    def test_forward_and_backward(self, spread):
        rng = np.random.default_rng(11)
        x = (rng.standard_normal(65_536) * spread).astype(np.float32)
        dy = rng.standard_normal(65_536).astype(np.float32)
        x64, dy64 = x.astype(np.float64), dy.astype(np.float64)
        t = np.tanh(SQRT_2_OVER_PI * (x64 + 0.044715 * x64**3))
        y64 = 0.5 * x64 * (1.0 + t)
        du = SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x64 * x64)
        g64 = dy64 * (0.5 * (1.0 + t) + 0.5 * x64 * (1.0 - t * t) * du)

        x_scale = np.maximum(1.0, np.abs(x64))
        y = F.gelu(Tensor.from_numpy(x)).numpy()
        assert y.dtype == np.float32
        assert _ulps(y, y64, x_scale).max() <= 2.0
        # The derivative sums two products of ~6 roundings each: 4 ULP.
        g = F.gelu_grad(Tensor.from_numpy(x), Tensor.from_numpy(dy)).numpy()
        assert _ulps(g, g64, x_scale * np.maximum(1.0, np.abs(dy64))).max() <= 4.0

    def test_fp16_computes_in_fp32(self):
        x = np.linspace(-4, 4, 257).astype(np.float16)
        y = F.gelu(Tensor.from_numpy(x))
        assert y.dtype == np.float16
        ref = F.gelu(Tensor.from_numpy(x.astype(np.float32))).numpy().astype(np.float16)
        np.testing.assert_array_equal(y.numpy(), ref)

    def test_gelu_costs_a_few_tanh(self):
        """No ``np.power`` and no needless temporaries in the kernel: GELU
        of 65 536 fp32 values costs a few ``np.tanh`` of the same array
        (it was ~150 with ``x**3``). A ratio of minima, so machine speed
        cancels."""
        from time import perf_counter

        data = np.random.default_rng(0).standard_normal(65_536).astype(np.float32)
        x = Tensor.from_numpy(data)

        def best_of_5(fn):
            best = float("inf")
            for _ in range(5):
                t0 = perf_counter()
                fn()
                best = min(best, perf_counter() - t0)
            return best

        F.gelu(x), np.tanh(data)  # warm both
        assert best_of_5(lambda: F.gelu(x)) <= 10 * best_of_5(lambda: np.tanh(data))


def _op_cases(dtype, *, meta=False, device=None):
    """Every public op that computes or materialises a result, as
    ``name -> (callable, input tensors)``, on ``dtype`` floats — or on
    their shape-only twins with ``meta=True``."""
    rng = np.random.default_rng(5)

    def from_numpy(array):
        if meta:
            return Tensor.meta(array.shape, array.dtype, device=device)
        return Tensor.from_numpy(array, device=device)

    def f(*shape):
        return from_numpy(rng.standard_normal(shape).astype(dtype))

    x, w, bias = f(2, 4, 8), f(8, 8), f(8)
    sq, dsq = f(2, 2, 4, 4), f(2, 2, 4, 4)
    gamma, beta = f(8), f(8)
    _, mean, rstd = F.layernorm(x, gamma, beta)
    table = f(16, 8)
    ids = from_numpy(rng.integers(0, 16, (2, 4)))
    logits = f(6, 16)
    targets = from_numpy(rng.integers(0, 16, 6))
    _, probs = F.cross_entropy(logits, targets)
    dy = f(2, 4, 8)
    return {
        "index_axis0": (lambda: F.index_axis0(x, 1), [x]),
        "index_axis0(1-D)": (lambda: F.index_axis0(bias, 3), [bias]),  # a 0-d array
        "stack_axis0": (lambda: F.stack_axis0([x, dy]), [x, dy]),
        "matmul": (lambda: F.matmul(x, w), [x, w]),
        "add": (lambda: F.add(x, bias), [x, bias]),
        "scale": (lambda: F.scale(x, 1.0), [x]),
        "sum_to": (lambda: F.sum_to(x, x.shape), [x]),  # nothing to reduce
        "gelu": (lambda: F.gelu(x), [x]),
        "gelu_grad": (lambda: F.gelu_grad(x, dy), [x, dy]),
        "softmax": (lambda: F.softmax(sq), [sq]),
        "softmax_grad": (lambda: F.softmax_grad(sq, dsq), [sq, dsq]),
        "causal_mask_fill": (lambda: F.causal_mask_fill(sq), [sq]),
        "causal_mask_zero_grad": (lambda: F.causal_mask_zero_grad(dsq), [dsq]),
        "layernorm": (lambda: F.layernorm(x, gamma, beta), [x, gamma, beta]),
        "layernorm_grad": (
            lambda: F.layernorm_grad(x, gamma, mean, rstd, dy), [x, gamma, mean, rstd, dy]
        ),
        "embedding_lookup": (lambda: F.embedding_lookup(table, ids), [table, ids]),
        "embedding_grad": (lambda: F.embedding_grad(table, ids, dy), [table, ids, dy]),
        "cross_entropy": (lambda: F.cross_entropy(logits, targets), [logits, targets]),
        "cross_entropy_grad": (
            lambda: F.cross_entropy_grad(probs, targets, dtype=probs.dtype), [probs, targets]
        ),
    }


def _public_ops() -> set[str]:
    import inspect

    return {
        name for name, fn in vars(F).items()
        if inspect.isfunction(fn) and fn.__module__ == F.__name__ and not name.startswith("_")
    }


class TestResultsNeverAliasInputs:
    """The guard that makes ``astype(copy=False)`` and the in-place kernels
    safe: an op's result owns its memory and its inputs are left as they
    were. ``reshape`` and ``transpose`` are accounted as views."""

    VIEWS = {"reshape", "transpose"}

    def test_every_public_op_is_covered(self):
        covered = {name.split("(")[0] for name in _op_cases(np.float32)}
        assert covered | self.VIEWS == _public_ops()

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_fresh_results_and_untouched_inputs(self, dtype):
        for name, (call, inputs) in _op_cases(dtype).items():
            before = [t.data.copy() for t in inputs]
            out = call()
            for result in out if isinstance(out, tuple) else (out,):
                if result is None:
                    continue
                for t in inputs:
                    assert not np.shares_memory(result.data, t.data), name
            for t, was in zip(inputs, before):
                np.testing.assert_array_equal(t.data, was, err_msg=name)


class TestTrustedResults:
    """Meta results are built by ``tensor.op_result``, which takes the
    op's word for shape and dtype. Whatever an op hands it must come out
    as the public constructor would have made it."""

    FIELDS = ("shape", "dtype", "size", "nbytes", "tag")

    @staticmethod
    def _flat(out):
        return [t for t in (out if isinstance(out, tuple) else (out,)) if t is not None]

    def _assert_as_constructed(self, got, name):
        # A view (no extent) is constructed on no pool, so it reserves nothing.
        device = got.device if got.extent is not None else None
        want = Tensor(got.shape, got.dtype, device=device, tag=got.tag)
        for field in self.FIELDS:
            assert getattr(got, field) == getattr(want, field), (name, field)
        assert type(got.dtype) is type(want.dtype) and type(got.shape) is tuple, name
        assert all(type(s) is int for s in got.shape), name
        assert type(got.size) is int and type(got.nbytes) is int, name
        assert got.data is None and not got.freed
        if want.extent is not None:
            assert (got.extent.size, got.extent.pool) == (want.extent.size, want.extent.pool), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_meta_results_equal_real_and_constructed_ones(self, dtype):
        from repro.memsim.device import Device

        device = Device()
        real = _op_cases(dtype, device=device)
        for name, (call, _inputs) in _op_cases(dtype, meta=True, device=device).items():
            got, want = self._flat(call()), self._flat(real[name][0]())
            assert len(got) == len(want), name
            for g, w in zip(got, want):
                for field in self.FIELDS:
                    assert getattr(g, field) == getattr(w, field), (name, field)
                assert g.extent.size == w.extent.size, name
                self._assert_as_constructed(g, name)

    def test_numpy_ints_and_scalar_types_are_normalised_by_the_op(self):
        from repro.memsim.device import Device

        i = np.int64
        x = Tensor.meta((4, 6, 8), np.float16, device=Device())
        ids, probs = Tensor.meta((4,), np.int64), Tensor.meta((4, 8), np.float32)
        cases = {
            "reshape": F.reshape(x, (i(8), np.int32(-1))),
            "reshape(array)": F.reshape(x, np.array([24, 8])),
            "transpose": F.transpose(x, (i(2), i(0), i(1))),
            "index_axis0": F.index_axis0(x, i(1)),
            "sum_to": F.sum_to(x, (i(1), i(8))),
            "cross_entropy_grad(type)": F.cross_entropy_grad(probs, ids, dtype=np.float16),
            "layernorm_grad.dgamma": F.layernorm_grad(
                x, Tensor.meta((8,), np.float16), Tensor.meta((4, 6, 1), np.float32),
                Tensor.meta((4, 6, 1), np.float32), x,
            )[1],
        }
        for name, got in cases.items():
            self._assert_as_constructed(got, name)
        assert cases["reshape"].shape == (8, 24)

    def test_a_callers_dtype_is_still_validated(self):
        x = Tensor.meta((2, 2), np.float32)
        for dtype in (np.complex64, np.bool_, "U4"):
            with pytest.raises(ValueError, match="unsupported dtype"):
                F.cross_entropy_grad(x, Tensor.meta((2,), np.int64), dtype=dtype)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_results_with_data_are_what_they_declare(self, dtype):
        """``op_result`` takes an op's array as it is — no cast, no shape
        check — so every public op must hand over an ``np.ndarray`` of
        exactly the dtype and shape it declares (at fp64 ``layernorm_grad``
        casts its fp32 parameter gradients down itself)."""
        x = Tensor.from_numpy(np.arange(24, dtype=dtype).reshape(2, 3, 4))
        cases = {
            **_op_cases(dtype),
            "reshape": (lambda: F.reshape(x, (6, -1)), [x]),
            "transpose": (lambda: F.transpose(x, (2, 0, 1)), [x]),
        }
        assert {name.split("(")[0] for name in cases} == _public_ops()
        for name, (call, _inputs) in cases.items():
            for t in self._flat(call()):
                assert type(t.data) is np.ndarray, name
                assert (t.data.dtype, t.data.shape) == (t.dtype, t.shape), name
                assert t.data.nbytes == t.nbytes, name


class TestLayerNormStatistics:
    """``layernorm`` / ``layernorm_grad`` take their means and variance with
    ``np.add.reduce`` and an in-place division by the count instead of
    ``np.mean`` / ``np.var`` — bitwise the same numbers, which is what
    keeps every pinned loss and digest where it was."""

    SHAPES = [(1, 1), (3, 7), (2, 5, 32), (4, 97), (2, 16, 768)]

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_statistics_equal_numpys_mean_and_var_bitwise(self, dtype):
        rng = np.random.default_rng(11)
        eps = 1e-5
        for shape in self.SHAPES:
            x = (rng.standard_normal(shape) * 3.0 + 1.5).astype(dtype)
            gamma = Tensor.from_numpy(rng.standard_normal(shape[-1]).astype(dtype))
            beta = Tensor.from_numpy(rng.standard_normal(shape[-1]).astype(dtype))
            dy = rng.standard_normal(shape).astype(dtype)
            _, mean, rstd = F.layernorm(Tensor.from_numpy(x), gamma, beta, eps)
            x32 = x.astype(np.promote_types(dtype, np.float32))
            want_mean = x32.mean(axis=-1, keepdims=True)
            want_rstd = 1.0 / np.sqrt(x32.var(axis=-1, keepdims=True) + eps)
            assert mean.numpy().tobytes() == want_mean.tobytes(), shape
            assert rstd.numpy().tobytes() == want_rstd.tobytes(), shape

            dx = F.layernorm_grad(
                Tensor.from_numpy(x), gamma, mean, rstd, Tensor.from_numpy(dy)
            )[0]
            xhat = (x32 - want_mean) * want_rstd
            dxhat = dy.astype(x32.dtype) * gamma.numpy().astype(x32.dtype)
            want_dx = want_rstd * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
            assert dx.numpy().tobytes() == want_dx.astype(dtype).tobytes(), shape


class TestCausalMaskCache:
    def test_read_only_and_shared_across_threads(self):
        import threading

        s = 13
        want = np.triu(np.ones((s, s), dtype=bool), k=1)
        seen = []

        def rank():
            scores = Tensor.from_numpy(np.zeros((2, s, s), np.float32))
            F.causal_mask_fill(scores)
            F.causal_mask_zero_grad(scores)
            seen.append(F._causal_mask(s))

        threads = [threading.Thread(target=rank) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
            assert not t.is_alive()
        assert len(seen) == 8
        for mask in seen:
            assert not mask.flags.writeable
            np.testing.assert_array_equal(mask, want)
        assert F._causal_mask(s) is F._causal_mask(s)
        with pytest.raises(ValueError):
            F._causal_mask(s)[0, 0] = True


def test_result_shapes_follow_numpy_broadcasting():
    """add/matmul short-cut ``np.broadcast_shapes`` when one operand
    shape is a suffix of the other; every pair must still agree with it."""
    import itertools

    shapes = [(), (1,), (3,), (2, 3), (1, 3), (2, 1), (4, 2, 3), (4, 1, 3), (1, 1, 1), (5, 4, 2, 3)]
    for a, b in itertools.product(shapes, shapes):
        ta, tb = Tensor.meta(a, np.float32), Tensor.meta(b, np.float16)
        try:
            want = tuple(np.broadcast_shapes(a, b))
        except ValueError:
            with pytest.raises(ValueError):
                F.add(ta, tb)
            continue
        assert F.add(ta, tb).shape == want and F.add(tb, ta).shape == want
        assert F.add(ta, tb).dtype == np.float32
        # the same pair as batch dims of a (.., 2, 5) @ (.., 5, 7) product
        ma, mb = Tensor.meta(a + (2, 5), np.float32), Tensor.meta(b + (5, 7), np.float32)
        assert F.matmul(ma, mb).shape == want + (2, 7)
