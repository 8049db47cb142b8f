"""Layers: Linear/Embedding/LayerNorm gradchecks, Parameter semantics, Cache."""

import numpy as np
import pytest

from repro.hardware.specs import GPUSpec
from repro.memsim.device import Device
from repro.nn.layers import Embedding, LayerNorm, Linear, make_param
from repro.nn.module import Cache, ExecutionContext, Module, Parameter
from repro.tensor.tensor import Tensor

SPEC = GPUSpec("t", 64 * 1024 * 1024, 1e12)
CTX = ExecutionContext()


def numerical_grad(f, x, eps=1e-6):
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


class TestLinear:
    def make(self, din=5, dout=3):
        rng = np.random.default_rng(0)
        return Linear("lin", din, dout, dtype=np.float64, rng=rng)

    def test_forward_matches_numpy(self):
        lin = self.make()
        x = np.random.default_rng(1).standard_normal((4, 5))
        y, cache = lin.forward(Tensor.from_numpy(x), CTX)
        expected = x @ lin.weight.data.numpy().T + lin.bias.data.numpy()
        np.testing.assert_allclose(y.numpy(), expected, rtol=1e-12)

    def test_forward_3d_input(self):
        lin = self.make()
        x = np.random.default_rng(1).standard_normal((2, 3, 5))
        y, _ = lin.forward(Tensor.from_numpy(x), CTX)
        assert y.shape == (2, 3, 3)

    def test_gradients(self):
        lin = self.make()
        x = np.random.default_rng(2).standard_normal((4, 5))
        r = np.random.default_rng(3).standard_normal((4, 3))

        def loss(xv=x, w=None, b=None):
            if w is not None:
                lin.weight.data.data = w
            if b is not None:
                lin.bias.data.data = b
            y, c = lin.forward(Tensor.from_numpy(xv), CTX)
            return float((y.numpy() * r).sum())

        y, cache = lin.forward(Tensor.from_numpy(x), CTX)
        dx = lin.backward(cache, Tensor.from_numpy(r))
        np.testing.assert_allclose(dx.numpy(), numerical_grad(lambda v: loss(xv=v), x), atol=1e-7)
        w0 = lin.weight.data.numpy().copy()
        np.testing.assert_allclose(
            lin.weight.grad.numpy(),
            numerical_grad(lambda wv: loss(w=wv), w0),
            atol=1e-7,
        )
        lin.weight.data.data = w0
        b0 = lin.bias.data.numpy().copy()
        np.testing.assert_allclose(
            lin.bias.grad.numpy(), numerical_grad(lambda bv: loss(b=bv), b0), atol=1e-7
        )

    def test_no_bias(self):
        rng = np.random.default_rng(0)
        lin = Linear("lin", 4, 2, bias=False, dtype=np.float32, rng=rng)
        assert lin.bias is None
        assert len(lin.parameters()) == 1

    def test_input_dim_validated(self):
        lin = self.make()
        with pytest.raises(ValueError, match="in_features"):
            lin.forward(Tensor.from_numpy(np.zeros((2, 7))), CTX)


class TestEmbedding:
    def test_lookup_and_grad_accumulation(self):
        rng = np.random.default_rng(0)
        emb = Embedding("emb", 10, 4, dtype=np.float64, rng=rng)
        ids = Tensor.from_numpy(np.array([[1, 1, 3]], np.int64))
        y, cache = emb.forward(ids, CTX)
        assert y.shape == (1, 3, 4)
        emb.backward(cache, Tensor.from_numpy(np.ones((1, 3, 4))))
        g = emb.weight.grad.numpy()
        np.testing.assert_array_equal(g[1], [2, 2, 2, 2])  # id 1 twice
        np.testing.assert_array_equal(g[0], [0, 0, 0, 0])


class TestLayerNormModule:
    def test_grad_dtype_follows_param(self):
        ln = LayerNorm("ln", 8, dtype=np.float16)
        x = Tensor.from_numpy(np.random.default_rng(0).standard_normal((2, 8)).astype(np.float16))
        y, cache = ln.forward(x, CTX)
        ln.backward(cache, Tensor.from_numpy(np.ones((2, 8), np.float16)))
        assert ln.gamma.grad.dtype == np.float16


class TestParameter:
    def test_accumulate_adds_in_fp32(self):
        p = make_param("p", (4,), dtype=np.float16, init="zeros")
        p.accumulate_grad(Tensor.from_numpy(np.full(4, 1.0, np.float16)))
        p.accumulate_grad(Tensor.from_numpy(np.full(4, 2.0, np.float16)))
        np.testing.assert_array_equal(p.grad.numpy(), np.full(4, 3.0, np.float16))

    def test_shape_mismatch_rejected(self):
        p = make_param("p", (4,), dtype=np.float32, init="zeros")
        with pytest.raises(ValueError, match="shape"):
            p.accumulate_grad(Tensor.from_numpy(np.zeros(5, np.float32)))

    def test_grad_ready_hook_fires_once(self):
        p = make_param("p", (4,), dtype=np.float32, init="zeros")
        calls = []
        p.grad_ready_hook = calls.append
        p.accumulate_grad(Tensor.from_numpy(np.ones(4, np.float32)))
        p.accumulate_grad(Tensor.from_numpy(np.ones(4, np.float32)))
        assert calls == [p]  # only the first accumulation

    def test_zero_grad_frees(self):
        d = Device(SPEC)
        p = make_param("p", (100,), dtype=np.float32, init="zeros", device=d)
        g = Tensor.from_numpy(np.ones(100, np.float32), device=d)
        p.accumulate_grad(g)
        assert p.grad is not None
        p.zero_grad()
        assert p.grad is None

    def test_make_param_validation(self):
        with pytest.raises(ValueError, match="rng"):
            make_param("p", (2,), init="normal")
        with pytest.raises(ValueError, match="unknown init"):
            make_param("p", (2,), init="uniform")


class TestModuleRegistry:
    def test_duplicate_names_rejected(self):
        m = Module("m")
        m.register_parameter(make_param("w", (2,), init="zeros"))
        with pytest.raises(ValueError, match="duplicate"):
            m.register_parameter(make_param("w", (2,), init="zeros"))

    def test_parameters_deterministic_order(self):
        rng = np.random.default_rng(0)
        lin = Linear("l", 4, 4, dtype=np.float32, rng=rng)
        names = [p.name for p in lin.parameters()]
        assert names == ["l.weight", "l.bias"]

    def test_num_parameters(self):
        rng = np.random.default_rng(0)
        lin = Linear("l", 4, 3, dtype=np.float32, rng=rng)
        assert sum(p.size for p in lin.parameters()) == 4 * 3 + 3

    def test_flattened_walk_follows_late_registrations_anywhere_below(self):
        """``parameters()`` walks a list flattened on first use; registering
        under any descendant — however deep, whoever else holds it — must
        show up at every ancestor, in depth-first registration order."""

        def walk(module):  # the recursive definition the flat list stands for
            out = list(module._parameters.values())
            for child in module._modules.values():
                out.extend(walk(child))
            return out

        def param(name):
            return make_param(name, (2,), init="zeros")

        root, other_root = Module("root"), Module("other")
        mid, leaf, sibling = Module("mid"), Module("leaf"), Module("sibling")
        root.register_parameter(param("root.w"))
        root.register_module(mid)
        mid.register_module(leaf)
        root.register_module(sibling)
        other_root.register_module(leaf)  # a second parent
        leaf.register_parameter(param("leaf.w"))
        sibling.register_parameter(param("sibling.w"))
        names = lambda m: [p.name for p in m.parameters()]  # noqa: E731
        assert names(root) == ["root.w", "leaf.w", "sibling.w"] and names(other_root) == ["leaf.w"]
        assert root.parameters() is not root.parameters()  # a copy, as before
        assert list(root.named_parameters()) == root.parameters()

        leaf.register_parameter(param("leaf.b"))
        assert names(root) == ["root.w", "leaf.w", "leaf.b", "sibling.w"]
        assert names(other_root) == ["leaf.w", "leaf.b"] and names(sibling) == ["sibling.w"]
        deeper = Module("deeper")
        deeper.register_parameter(param("deeper.w"))
        leaf.register_module(deeper)
        mid.register_parameter(param("mid.w"))
        for module in (root, other_root, mid, leaf, sibling, deeper):
            assert module.parameters() == walk(module)
        assert names(root) == ["root.w", "mid.w", "leaf.w", "leaf.b", "deeper.w", "sibling.w"]
        assert sum(p.size for p in root.parameters()) == 12

    def test_zero_grad_reaches_every_parameter_of_the_flat_walk(self):
        root, child = Module("root"), Module("child")
        root.register_module(child)
        params = [root.register_parameter(make_param("a", (2,), init="zeros")),
                  child.register_parameter(make_param("b", (2,), init="zeros"))]
        for p in params:
            p.accumulate_grad(Tensor.zeros((2,), np.float16))
        root.zero_grad()
        assert all(p.grad is None for p in params)


class TestCache:
    def test_free_releases_owned_only(self):
        d = Device(SPEC)
        owned = Tensor((10,), np.float32, data=np.zeros(10, np.float32), device=d)
        referenced = Tensor((10,), np.float32, data=np.zeros(10, np.float32), device=d)
        c = Cache()
        c.own(a=owned)
        c.ref(b=referenced)
        c.free()
        assert owned.freed
        assert not referenced.freed
        referenced.free()

    def test_free_recurses_into_children(self):
        inner_t = Tensor.zeros((4,), np.float32)
        inner = Cache()
        inner.own(x=inner_t)
        outer = Cache()
        outer.child("inner", inner)
        outer.free()
        assert inner_t.freed

    def test_free_is_idempotent(self):
        t = Tensor.zeros((4,), np.float32)
        c = Cache()
        c.own(x=t)
        c.free()
        c.free()  # second free must not raise

    def test_own_list(self):
        ts = [Tensor.zeros((2,), np.float32) for _ in range(3)]
        c = Cache()
        c.own_list("hs", ts)
        assert c["hs"] == ts
        c.free()
        assert all(t.freed for t in ts)
