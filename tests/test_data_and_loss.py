"""Synthetic corpus and the loss heads (incl. vocab-parallel vs serial)."""

import numpy as np
import pytest

from repro import Cluster, GPTConfig
from repro.data import MARKOV_WEIGHT, SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.nn.loss import CausalLMLoss, VocabParallelCausalLMLoss
from repro.tensor.tensor import Tensor

GPU = GPUSpec("t", 10**9, 1e12)


class TestSyntheticCorpus:
    def test_reproducible(self):
        c = SyntheticCorpus(100, seed=1)
        a = c.sample_batch(4, 16, rank=0, step=0)
        b = SyntheticCorpus(100, seed=1).sample_batch(4, 16, rank=0, step=0)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("seed", [0, 1, 7, 1234])
    def test_token_streams_equal_generator_choice(self, seed):
        """The cached-CDF draw is ``Generator.choice(p=unigram)`` bit for
        bit; the reference below is the implementation it replaced."""
        from repro.utils.seeding import rng_for

        c = SyntheticCorpus(61 + seed % 5, seed=seed)

        def reference(batch, seq_len, rank, step):
            rng = rng_for(c.seed, "batch", rank, step)
            tokens = np.empty((batch, seq_len + 1), dtype=np.int64)
            tokens[:, 0] = rng.choice(c.vocab_size, size=batch, p=c.unigram)
            fanout = c.successors.shape[1]
            for t in range(1, seq_len + 1):
                use_markov = rng.random(batch) < MARKOV_WEIGHT
                succ = c.successors[tokens[:, t - 1], rng.integers(0, fanout, size=batch)]
                fresh = rng.choice(c.vocab_size, size=batch, p=c.unigram)
                tokens[:, t] = np.where(use_markov, succ, fresh)
            return tokens[:, :-1], tokens[:, 1:]

        for rank in (0, 1, 5):
            for step in (0, 3):
                ids, tgt = c.sample_batch(3, 24, rank=rank, step=step)
                ref_ids, ref_tgt = reference(3, 24, rank, step)
                np.testing.assert_array_equal(ids, ref_ids)
                np.testing.assert_array_equal(tgt, ref_tgt)

    def test_ranks_see_different_data(self):
        c = SyntheticCorpus(100, seed=1)
        a, _ = c.sample_batch(4, 16, rank=0, step=0)
        b, _ = c.sample_batch(4, 16, rank=1, step=0)
        assert not np.array_equal(a, b)

    def test_steps_differ(self):
        c = SyntheticCorpus(100, seed=1)
        a, _ = c.sample_batch(4, 16, rank=0, step=0)
        b, _ = c.sample_batch(4, 16, rank=0, step=1)
        assert not np.array_equal(a, b)

    def test_targets_are_shifted_inputs(self):
        c = SyntheticCorpus(50, seed=2)
        ids, tgt = c.sample_batch(2, 10, rank=0, step=0)
        np.testing.assert_array_equal(ids[:, 1:], tgt[:, :-1])

    def test_tokens_in_vocab(self):
        c = SyntheticCorpus(37, seed=3)
        ids, tgt = c.sample_batch(8, 32, rank=5, step=9)
        assert ids.min() >= 0 and ids.max() < 37
        assert tgt.min() >= 0 and tgt.max() < 37

    def test_zipf_head_is_frequent(self):
        c = SyntheticCorpus(1000, seed=4)
        ids, _ = c.sample_batch(32, 64, rank=0, step=0)
        counts = np.bincount(ids.reshape(-1), minlength=1000)
        assert counts[:10].sum() > counts[500:510].sum() * 3

    def test_markov_structure_is_learnable_signal(self):
        """A ``MARKOV_WEIGHT`` share of tokens comes from the predecessor's
        small successor set: next tokens land in it at about that rate,
        tokens two apart (no direct link) far less often."""
        c = SyntheticCorpus(100, seed=5)
        ids, _ = c.sample_batch(8, 64, rank=0, step=0)

        def share(gap):
            pairs = [(a, b) for row in ids for a, b in zip(row[:-gap], row[gap:])]
            return sum(b in c.successors[a] for a, b in pairs) / len(pairs)

        assert share(1) > 0.9 * MARKOV_WEIGHT
        assert share(1) > 3 * share(2)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticCorpus(1)


class TestVocabParallelLoss:
    def test_matches_serial_loss_and_grads(self):
        rng = np.random.default_rng(0)
        b, s, v = 2, 4, 12
        logits = rng.standard_normal((b, s, v)).astype(np.float64)
        targets = rng.integers(0, v, (b, s))
        serial = CausalLMLoss()
        l_ref, c_ref = serial.forward(Tensor.from_numpy(logits), Tensor.from_numpy(targets))
        d_ref = serial.backward(c_ref, loss_scale=3.0)

        def fn(ctx):
            loss_head = VocabParallelCausalLMLoss(ctx.world, ctx.rank)
            idx = ctx.world.group_index(ctx.rank)
            local = logits[..., idx * 6 : (idx + 1) * 6]
            loss, cache = loss_head.forward(
                Tensor.from_numpy(local), Tensor.from_numpy(targets)
            )
            d = loss_head.backward(cache, loss_scale=3.0)
            return float(loss.numpy()), d.numpy().copy()

        results = Cluster(2, gpu=GPU, timeout_s=30.0).run(fn)
        for rank, (loss, d) in enumerate(results):
            assert loss == pytest.approx(float(l_ref.numpy()), rel=1e-12)
            np.testing.assert_allclose(
                d, d_ref.numpy()[..., rank * 6 : (rank + 1) * 6], atol=1e-12
            )

    def test_meta_mode_records_stat_traffic(self):
        def fn(ctx):
            loss_head = VocabParallelCausalLMLoss(ctx.world, ctx.rank)
            ctx.ledger.clear()
            loss, cache = loss_head.forward(
                Tensor.meta((2, 4, 6), np.float16), Tensor.meta((2, 4), np.int64)
            )
            d = loss_head.backward(cache)
            assert d.is_meta and d.shape == (2, 4, 6)
            return len([e for e in ctx.ledger.events if e.phase == "loss-stats"])

        assert Cluster(2, gpu=GPU, timeout_s=30.0).run(fn) == [3, 3]


class TestCausalLMLossScaling:
    def test_backward_scales_gradient(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((1, 3, 5)).astype(np.float32)
        targets = rng.integers(0, 5, (1, 3))
        head = CausalLMLoss()
        _, c1 = head.forward(Tensor.from_numpy(logits), Tensor.from_numpy(targets))
        d1 = head.backward(c1, loss_scale=1.0)
        _, c2 = head.forward(Tensor.from_numpy(logits), Tensor.from_numpy(targets))
        d2 = head.backward(c2, loss_scale=8.0)
        np.testing.assert_allclose(d2.numpy(), 8 * d1.numpy(), rtol=1e-6)
