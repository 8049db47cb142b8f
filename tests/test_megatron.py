"""Megatron tensor MP: parallel layers == serial numerics, comm pattern."""

import hashlib

import numpy as np
import pytest

from repro import Cluster, GPTConfig
from repro.hardware.specs import GPUSpec
from repro.memprof import MemoryProfiler
from repro.nn.layers import ColumnParallelLinear, Linear, RowParallelLinear
from repro.nn.loss import CausalLMLoss
from repro.nn.module import ExecutionContext
from repro.nn.transformer import GPT2Model
from repro.tensor.tensor import Tensor
from tests.streams import DeviceStream

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=64, max_seq_len=16)
CTX = ExecutionContext()


def run_world(n, fn):
    return Cluster(n, gpu=GPU, timeout_s=60.0).run(fn)


def serial_reference(ids, tgt, dtype=np.float64):
    rng = np.random.default_rng(3)
    model = GPT2Model(CFG, dtype=dtype, rng=rng)
    loss_head = CausalLMLoss()
    logits, cache = model.forward(Tensor.from_numpy(ids), CTX)
    loss, lcache = loss_head.forward(logits, Tensor.from_numpy(tgt))
    d = loss_head.backward(lcache)
    model.backward(cache, d)
    return model, float(loss.numpy()), logits.numpy().copy()


class TestParallelLinears:
    def test_column_parallel_concat_equals_serial(self):
        x = np.random.default_rng(0).standard_normal((3, 8))

        def fn(ctx):
            rng = np.random.default_rng(5)
            col = ColumnParallelLinear("c", 8, 6, ctx.world, ctx.rank,
                                       dtype=np.float64, rng=rng)
            y, _ = col.forward(Tensor.from_numpy(x), CTX)
            return y.numpy()

        rng = np.random.default_rng(5)
        serial = Linear("c", 8, 6, dtype=np.float64, rng=rng)
        y_ref, _ = serial.forward(Tensor.from_numpy(x), CTX)
        parts = run_world(2, fn)
        np.testing.assert_allclose(np.concatenate(parts, axis=-1), y_ref.numpy(), rtol=1e-12)

    def test_row_parallel_sums_to_serial(self):
        x = np.random.default_rng(0).standard_normal((3, 8))

        def fn(ctx):
            rng = np.random.default_rng(5)
            row = RowParallelLinear("r", 8, 6, ctx.world, ctx.rank,
                                    dtype=np.float64, rng=rng)
            idx = ctx.world.group_index(ctx.rank)
            x_local = x[:, idx * 4 : (idx + 1) * 4]
            y, _ = row.forward(Tensor.from_numpy(x_local), CTX)
            return y.numpy()

        rng = np.random.default_rng(5)
        serial = Linear("r", 8, 6, dtype=np.float64, rng=rng)
        y_ref, _ = serial.forward(Tensor.from_numpy(x), CTX)
        for y in run_world(2, fn):
            np.testing.assert_allclose(y, y_ref.numpy(), rtol=1e-10)

    def test_divisibility_validated(self):
        def fn(ctx):
            rng = np.random.default_rng(0)
            with pytest.raises(ValueError):
                ColumnParallelLinear("c", 8, 7, ctx.world, ctx.rank,
                                     dtype=np.float32, rng=rng)
            with pytest.raises(ValueError):
                RowParallelLinear("r", 7, 8, ctx.world, ctx.rank,
                                  dtype=np.float32, rng=rng)
            return True

        assert all(run_world(2, fn))


class TestParallelModel:
    @pytest.mark.parametrize("mp", [2, 4])
    def test_loss_and_grads_match_serial(self, mp):
        ids = np.random.default_rng(0).integers(0, 64, (2, 8))
        tgt = np.random.default_rng(1).integers(0, 64, (2, 8))
        serial_model, serial_loss, _ = serial_reference(ids, tgt)
        serial_grads = {p.name: p.grad.numpy().copy() for p in serial_model.parameters()}

        def fn(ctx):
            rng = np.random.default_rng(3)
            model = GPT2Model(CFG, mp_group=ctx.world, rank=ctx.rank, dtype=np.float64, rng=rng)
            loss_head = model.make_loss_head()
            logits, cache = model.forward(Tensor.from_numpy(ids), CTX)
            loss, lcache = loss_head.forward(logits, Tensor.from_numpy(tgt))
            d = loss_head.backward(lcache)
            model.backward(cache, d)
            ln_grad = {p.name: p.grad.numpy().copy() for p in model.parameters()
                       if ".ln1." in p.name or ".ln_f." in p.name or ".emb." in p.name}
            return float(loss.numpy()), ln_grad

        for loss, ln_grads in run_world(mp, fn):
            assert loss == pytest.approx(serial_loss, rel=1e-9)
            for name, g in ln_grads.items():
                np.testing.assert_allclose(g, serial_grads[name], rtol=1e-7, atol=1e-10)

    def test_sharded_weight_grads_match_serial_slices(self):
        ids = np.random.default_rng(0).integers(0, 64, (2, 8))
        tgt = np.random.default_rng(1).integers(0, 64, (2, 8))
        serial_model, _, _ = serial_reference(ids, tgt)
        serial_grads = {p.name: p.grad.numpy().copy() for p in serial_model.parameters()}

        def fn(ctx):
            rng = np.random.default_rng(3)
            model = GPT2Model(CFG, mp_group=ctx.world, rank=ctx.rank, dtype=np.float64, rng=rng)
            loss_head = model.make_loss_head()
            logits, cache = model.forward(Tensor.from_numpy(ids), CTX)
            loss, lcache = loss_head.forward(logits, Tensor.from_numpy(tgt))
            model.backward(cache, loss_head.backward(lcache))
            return {p.name: p.grad.numpy().copy() for p in model.parameters()}

        grads0, grads1 = run_world(2, fn)
        # fc1 column-parallel: rank 0 holds the first half of output rows.
        full = serial_grads["gpt2.h0.mlp.fc1.weight"]
        np.testing.assert_allclose(grads0["gpt2.h0.mlp.fc1.weight"], full[:64], atol=1e-9)
        np.testing.assert_allclose(grads1["gpt2.h0.mlp.fc1.weight"], full[64:], atol=1e-9)
        # fc2 row-parallel: rank 0 holds the first half of input columns.
        full2 = serial_grads["gpt2.h0.mlp.fc2.weight"]
        np.testing.assert_allclose(grads0["gpt2.h0.mlp.fc2.weight"], full2[:, :64], atol=1e-9)

    def test_attention_head_split_matches_serial(self):
        ids = np.random.default_rng(0).integers(0, 64, (2, 8))
        tgt = np.random.default_rng(1).integers(0, 64, (2, 8))
        serial_model, _, _ = serial_reference(ids, tgt)
        serial_grads = {p.name: p.grad.numpy().copy() for p in serial_model.parameters()}

        def fn(ctx):
            rng = np.random.default_rng(3)
            model = GPT2Model(CFG, mp_group=ctx.world, rank=ctx.rank, dtype=np.float64, rng=rng)
            loss_head = model.make_loss_head()
            logits, cache = model.forward(Tensor.from_numpy(ids), CTX)
            loss, lcache = loss_head.forward(logits, Tensor.from_numpy(tgt))
            model.backward(cache, loss_head.backward(lcache))
            return {p.name: p.grad.numpy().copy() for p in model.parameters()}

        grads0, _ = run_world(2, fn)
        h, nh, hd = 32, 4, 8
        rows = np.concatenate(
            [[c * h + head * hd + i for head in (0, 1) for i in range(hd)] for c in range(3)]
        )
        np.testing.assert_allclose(
            grads0["gpt2.h0.attn.qkv.weight"],
            serial_grads["gpt2.h0.attn.qkv.weight"][rows],
            atol=1e-9,
        )

    def test_mp_comm_pattern_two_allreduces_per_block_per_pass(self):
        ids = np.random.default_rng(0).integers(0, 64, (2, 8))

        def fn(ctx):
            rng = np.random.default_rng(3)
            model = GPT2Model(CFG, mp_group=ctx.world, rank=ctx.rank, dtype=np.float32, rng=rng)
            ctx.ledger.clear()
            logits, cache = model.forward(Tensor.from_numpy(ids), CTX)
            n_fwd = sum(1 for e in ctx.ledger.events if e.op == "all_reduce")
            cache.free()
            logits.free_if_alive()
            return n_fwd

        # Forward: 2 all-reduces per block (attn.proj + mlp.fc2).
        assert run_world(2, fn)[0] == 2 * CFG.n_layers

    def test_vocab_padding(self):
        cfg = GPTConfig(n_layers=1, hidden=16, n_heads=2, vocab_size=50257, max_seq_len=8)

        def fn(ctx):
            model = GPT2Model(cfg, mp_group=ctx.world, rank=ctx.rank, dtype=np.float16, meta=True)
            return model.head.padded_vocab, model.head.lm_head.out_local

        padded, local = run_world(2, fn)[0]
        assert padded == 50258 and local == 25129


GOLDEN_CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)

#: mp -> (dtype, meta, rank 0's construction: device stream events and
#: digest, parameter digest, the shared rng's next draw), pinned when
#: tensor parallelism was a forked model class
CONSTRUCTION_GOLDEN = {
    1: (np.float32, False, (
        29, "9290b8878c8fce4e951fe0dc510d8c326b2b9bb7b9332781652bdbd9d083adf4",
        "3831fa0c1d6ac949e63e58133fc0d20b9a77f7e70b2b2040abf1aa3ce967851f",
        0.825871794972282)),
    2: (np.float32, False, (
        29, "8c9b4c59121ecd6bbe1180d8364271b347e1b4addac5b84cd1305bc19b3ea3d9",
        "0645446bc48d6aebcd5d7b044b43182e08e903a1abb616c0be8c93f3ee45449b",
        -0.745638224415495)),
    4: (np.float16, True, (
        29, "cddb61365319c92ec7539f8d7046af601cfaf45d5f1e8e091d8a5f26c1ee090f",
        "d34827bd8222e87420d4af3b81dc6c99aec322629772ca5a31c78a80a251b430",
        2.0409191213851825)),
}


@pytest.mark.parametrize("mp", sorted(CONSTRUCTION_GOLDEN))
def test_construction_is_bitwise_the_pinned_one(monkeypatch, mp):
    """One ``GPT2Model`` builds the serial model (a group of one rank is no
    MP) and every MP shard: rank 0 allocates, draws and holds exactly what
    it did. The parameters are hashed as (name, shape, dtype, bytes)."""
    dtype, meta, golden = CONSTRUCTION_GOLDEN[mp]
    device = DeviceStream(monkeypatch)

    def fn(ctx):
        rng = np.random.default_rng(3)
        model = GPT2Model(GOLDEN_CFG, mp_group=ctx.world, rank=ctx.rank, dtype=dtype,
                          device=ctx.device, rng=rng, meta=meta)
        sha = hashlib.sha256()
        for p in model.parameters():
            sha.update(f"{p.name},{p.data.shape},{p.data.dtype};".encode())
            if not meta:
                sha.update(p.data.numpy().tobytes())
        return sha.hexdigest(), float(rng.standard_normal())

    params, draw = run_world(mp, fn)[0]
    assert (device.events, device.digest, params, draw) == golden


def test_replicated_parameters_are_attributed_to_the_model_site():
    """Construction runs under one memprof site, the model's, whatever the
    MP degree: the replicated embeddings, layer norms and row-parallel
    biases land on ``gpt2``, and each sharded weight keeps its own site."""

    def fn(ctx):
        with MemoryProfiler(ctx.device) as prof:
            GPT2Model(CFG, mp_group=ctx.world, rank=ctx.rank, dtype=np.float32,
                      device=ctx.device, rng=np.random.default_rng(3))
            return {row["tag"]: row["site"] for row in prof.live_blocks()}

    sites = run_world(2, fn)[0]
    sharded = ("qkv.weight", "qkv.bias", "proj.weight", "fc1.weight", "fc1.bias",
               "fc2.weight", "lm_head.weight")
    replicated = {tag: site for tag, site in sites.items() if not tag.endswith(sharded)}
    assert {"gpt2.emb.wte.weight", "gpt2.h1.ln2.beta", "gpt2.h1.mlp.fc2.bias",
            "gpt2.head.ln_f.gamma"} <= set(replicated)
    assert set(replicated.values()) == {"gpt2"}
    assert all(site == tag for tag, site in sites.items() if tag.endswith(sharded))
