"""Attention, transformer blocks, and the GPT-2 model: gradients, shapes,
activation checkpointing, unit listener ordering, memory hygiene."""

import numpy as np
import pytest

from repro.hardware.specs import GPUSpec
from repro.memsim.device import Device
from repro.nn.attention import MultiHeadAttention
from repro.nn.loss import CausalLMLoss
from repro.nn.module import ExecutionContext
from repro.nn.transformer import GPT2Model, GPTConfig, TransformerBlock

CTX = ExecutionContext()
SPEC = GPUSpec("t", 512 * 1024 * 1024, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=53, max_seq_len=16)


def full_step(model, ids, targets, ctx=CTX):
    """forward + loss + backward; returns (loss value, caches to free)."""
    from repro.tensor.tensor import Tensor

    loss_head = CausalLMLoss()
    logits, cache = model.forward(Tensor.from_numpy(ids), ctx)
    loss, lcache = loss_head.forward(logits, Tensor.from_numpy(targets))
    dlogits = loss_head.backward(lcache)
    demb = model.backward(cache, dlogits)
    value = float(loss.numpy())
    for obj in (lcache, cache):
        obj.free()
    for t in (dlogits, demb, logits, loss):
        t.free_if_alive()
    return value


class TestAttention:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        attn = MultiHeadAttention("a", 32, 4, dtype=np.float32, rng=rng)
        from repro.tensor.tensor import Tensor

        x = Tensor.from_numpy(rng.standard_normal((2, 8, 32)).astype(np.float32))
        y, cache = attn.forward(x, CTX)
        assert y.shape == (2, 8, 32)
        dx = attn.backward(cache, Tensor.from_numpy(np.ones((2, 8, 32), np.float32)))
        assert dx.shape == (2, 8, 32)

    def test_causality(self):
        """Changing a future token must not change earlier outputs."""
        rng = np.random.default_rng(0)
        attn = MultiHeadAttention("a", 16, 2, dtype=np.float64, rng=rng)
        from repro.tensor.tensor import Tensor

        x = rng.standard_normal((1, 6, 16))
        y1, c1 = attn.forward(Tensor.from_numpy(x), CTX)
        x2 = x.copy()
        x2[0, 5] += 10.0  # perturb the last position
        y2, c2 = attn.forward(Tensor.from_numpy(x2), CTX)
        np.testing.assert_array_equal(y1.numpy()[0, :5], y2.numpy()[0, :5])
        assert not np.allclose(y1.numpy()[0, 5], y2.numpy()[0, 5])

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ValueError):
            MultiHeadAttention("a", 30, 4, dtype=np.float32, rng=np.random.default_rng(0))

    def test_block_gradcheck_spot(self):
        """One tight numerical check through the whole block (float64)."""
        rng = np.random.default_rng(1)
        blk = TransformerBlock("b", 16, 2, dtype=np.float64, rng=rng)
        from repro.tensor.tensor import Tensor

        x = rng.standard_normal((1, 4, 16))
        r = rng.standard_normal((1, 4, 16))
        y, cache = blk.forward(Tensor.from_numpy(x), CTX)
        dx = blk.backward(cache, Tensor.from_numpy(r))
        eps = 1e-6
        idx = (0, 2, 5)
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        yp, cp = blk.forward(Tensor.from_numpy(xp), CTX)
        ym, cm = blk.forward(Tensor.from_numpy(xm), CTX)
        num = ((yp.numpy() - ym.numpy()) * r).sum() / (2 * eps)
        assert abs(dx.numpy()[idx] - num) < 1e-6


class TestGPTModel:
    def test_param_count_matches_config(self):
        rng = np.random.default_rng(0)
        model = GPT2Model(CFG, dtype=np.float32, rng=rng)
        assert sum(p.size for p in model.parameters()) == CFG.total_params

    def test_block_params_formula(self):
        # ~12 h^2 per block (the paper's sizing rule).
        h = CFG.hidden
        assert CFG.block_params == pytest.approx(12 * h * h, rel=0.05)

    def test_paper_model_sizes(self):
        # Table 4: 48 layers x 1600 hidden ~= the paper's "1.5B" model.
        cfg = GPTConfig(n_layers=48, hidden=1600, n_heads=16)
        assert cfg.total_params / 1e9 == pytest.approx(1.5, rel=0.15)
        cfg = GPTConfig(n_layers=125, hidden=8192, n_heads=64)
        assert cfg.total_params / 1e9 == pytest.approx(100, rel=0.05)

    def test_loss_starts_near_uniform(self):
        rng = np.random.default_rng(0)
        model = GPT2Model(CFG, dtype=np.float32, rng=rng)
        ids = rng.integers(0, CFG.vocab_size, (2, 8))
        tgt = rng.integers(0, CFG.vocab_size, (2, 8))
        loss = full_step(model, ids, tgt)
        assert loss == pytest.approx(np.log(CFG.vocab_size), rel=0.05)

    def test_seq_len_validated(self):
        rng = np.random.default_rng(0)
        model = GPT2Model(CFG, dtype=np.float32, rng=rng)
        from repro.tensor.tensor import Tensor

        with pytest.raises(ValueError, match="sequence length"):
            model.forward(Tensor.from_numpy(np.zeros((1, 17), np.int64)), CTX)

    def test_checkpointing_same_loss_and_grads(self):
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        plain = GPT2Model(CFG, dtype=np.float32, rng=rng_a)
        ckpt = GPT2Model(CFG, dtype=np.float32, rng=rng_b, checkpoint_activations=True)
        ids = np.random.default_rng(1).integers(0, CFG.vocab_size, (2, 8))
        tgt = np.random.default_rng(2).integers(0, CFG.vocab_size, (2, 8))
        l1 = full_step(plain, ids, tgt)
        l2 = full_step(ckpt, ids, tgt)
        assert l1 == l2
        for p, q in zip(plain.parameters(), ckpt.parameters()):
            np.testing.assert_array_equal(p.grad.numpy(), q.grad.numpy())

    def test_checkpointing_reduces_activation_memory(self):
        cfg = GPTConfig(n_layers=4, hidden=64, n_heads=4, vocab_size=64, max_seq_len=32)

        def peak(checkpoint):
            d = Device(SPEC)
            rng = np.random.default_rng(0)
            model = GPT2Model(cfg, dtype=np.float32, rng=rng, device=d,
                              checkpoint_activations=checkpoint)
            baseline = d.allocated_bytes
            d.reset_peak_stats()
            ids = np.random.default_rng(1).integers(0, 64, (4, 32))
            from repro.nn.module import ExecutionContext
            from repro.tensor.tensor import Tensor

            logits, cache = model.forward(Tensor.from_numpy(ids), ExecutionContext())
            live_after_fwd = d.allocated_bytes - baseline
            cache.free()
            logits.free()
            return live_after_fwd

        assert peak(True) < peak(False) / 2  # checkpointing halves+ activations

    def test_memory_returns_to_params_after_full_step(self):
        d = Device(SPEC)
        rng = np.random.default_rng(0)
        model = GPT2Model(CFG, dtype=np.float32, rng=rng, device=d)
        after_init = d.allocated_bytes
        ids = np.random.default_rng(1).integers(0, CFG.vocab_size, (2, 8))
        tgt = np.random.default_rng(2).integers(0, CFG.vocab_size, (2, 8))
        full_step(model, ids, tgt)
        model.zero_grad()
        assert d.allocated_bytes == after_init  # no activation leaks

    def test_unit_listener_ordering(self):
        events = []

        class Recorder:
            def before_unit(self, unit):
                events.append(("before", unit.name))

            def after_unit(self, unit):
                events.append(("after", unit.name))

        rng = np.random.default_rng(0)
        model = GPT2Model(CFG, dtype=np.float32, rng=rng)
        model.unit_listener = Recorder()
        ids = np.random.default_rng(1).integers(0, CFG.vocab_size, (1, 4))
        tgt = np.random.default_rng(2).integers(0, CFG.vocab_size, (1, 4))
        full_step(model, ids, tgt)
        names = [n for _, n in events]
        # Forward: emb, h0, h1, head; backward: head, h1, h0, emb.
        assert names == [
            "gpt2.emb", "gpt2.emb", "gpt2.h0", "gpt2.h0", "gpt2.h1", "gpt2.h1",
            "gpt2.head", "gpt2.head",
            "gpt2.head", "gpt2.head", "gpt2.h1", "gpt2.h1", "gpt2.h0", "gpt2.h0",
            "gpt2.emb", "gpt2.emb",
        ]
        # Properly bracketed.
        kinds = [k for k, _ in events]
        assert kinds == ["before", "after"] * 8

    def test_units_order(self):
        rng = np.random.default_rng(0)
        model = GPT2Model(CFG, dtype=np.float32, rng=rng)
        names = [u.name for u in model.units()]
        assert names == ["gpt2.emb", "gpt2.h0", "gpt2.h1", "gpt2.head"]

    def test_meta_model_forward_backward(self):
        model = GPT2Model(CFG, dtype=np.float16, meta=True)
        from repro.tensor.tensor import Tensor

        ids = Tensor.meta((2, 8), np.int64)
        logits, cache = model.forward(ids, CTX)
        assert logits.is_meta and logits.shape == (2, 8, CFG.vocab_size)
        model.backward(cache, Tensor.meta((2, 8, CFG.vocab_size), np.float16)).free_if_alive()
        assert all(p.grad is not None and p.grad.is_meta for p in model.parameters())
