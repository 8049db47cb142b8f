"""Checkpoint save/load: bitwise resume for every engine, shard layout."""

import json

import numpy as np
import pytest

from repro import Cluster, GPTConfig, ZeROConfig
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.optim.adam import AdamHyperparams
from repro.parallel.engine import EngineConfig
from repro.zero.checkpoint_io import load_checkpoint, save_checkpoint
from repro.zero.factory import build_model_and_engine

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)
WORLD = 2


def build(ctx, stage, dtype=np.float32):
    zero = ZeROConfig(stage=stage, checkpoint_activations=False, memory_defrag=False)
    return build_model_and_engine(
        ctx, CFG, zero, dp_group=ctx.world, dtype=dtype, seed=3,
        engine_config=EngineConfig(adam=AdamHyperparams(lr=1e-3)),
    )


def train(engine, ctx, start, steps):
    losses = []
    for step in range(start, start + steps):
        ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step)
        losses.append(engine.train_step(ids, tgt).loss)
    return losses


@pytest.mark.parametrize("stage", [0, 1, 2, 3])
def test_bitwise_resume(stage, tmp_path):
    """train(2) -> save -> train(2) must equal fresh-load -> train(2)."""
    ckpt = tmp_path / "ckpt"

    def straight(ctx):
        model, engine = build(ctx, stage)
        train(engine, ctx, 0, 2)
        save_checkpoint(engine, ckpt)
        losses = train(engine, ctx, 2, 2)
        return losses, engine.opt_state.master.data.copy()

    ref = Cluster(WORLD, gpu=GPU, timeout_s=60.0).run(straight)

    def resumed(ctx):
        model, engine = build(ctx, stage)
        load_checkpoint(engine, ckpt)
        assert engine.step_count == 2
        losses = train(engine, ctx, 2, 2)
        return losses, engine.opt_state.master.data.copy()

    out = Cluster(WORLD, gpu=GPU, timeout_s=60.0).run(resumed)
    for rank in range(WORLD):
        assert out[rank][0] == ref[rank][0]  # losses bitwise
        np.testing.assert_array_equal(out[rank][1], ref[rank][1])  # state bitwise


def test_shard_files_shrink_with_world_size(tmp_path):
    """Each rank writes ~1/Nd of the optimizer state (the ZeRO property)."""

    def fn(ctx):
        model, engine = build(ctx, stage=2)
        train(engine, ctx, 0, 1)
        return save_checkpoint(engine, tmp_path / "c").stat().st_size

    sizes = Cluster(WORLD, gpu=GPU, timeout_s=60.0).run(fn)
    full_fp32 = CFG.total_params * 4
    # 3 fp32 vectors of numel/2 each ~= 6 bytes/param per rank.
    assert sizes[0] < full_fp32 * 2
    meta = json.loads((tmp_path / "c" / "meta.json").read_text())
    assert meta["world_size"] == WORLD and meta["engine"] == "zero2"


def test_scaler_state_roundtrips(tmp_path):
    def fn(ctx):
        model, engine = build(ctx, stage=1)
        engine.scaler.scale = 4096.0
        engine.scaler.good_steps = 7
        save_checkpoint(engine, tmp_path / "c")
        model2, engine2 = build(ctx, stage=1)
        load_checkpoint(engine2, tmp_path / "c")
        return engine2.scaler.scale, engine2.scaler.good_steps

    assert Cluster(WORLD, gpu=GPU, timeout_s=60.0).run(fn) == [(4096.0, 7)] * WORLD


def test_mismatched_world_rejected(tmp_path):
    def writer(ctx):
        model, engine = build(ctx, stage=2)
        save_checkpoint(engine, tmp_path / "c")

    Cluster(2, gpu=GPU, timeout_s=60.0).run(writer)

    def reader(ctx):
        # Model padded for 1 rank has different flat layout too; the world
        # check fires first.
        model, engine = build(ctx, stage=2)
        with pytest.raises(ValueError, match="world"):
            load_checkpoint(engine, tmp_path / "c")
        return True

    assert Cluster(1, gpu=GPU, timeout_s=60.0).run(reader) == [True]


def test_mismatched_engine_rejected(tmp_path):
    def writer(ctx):
        model, engine = build(ctx, stage=2)
        save_checkpoint(engine, tmp_path / "c")

    Cluster(WORLD, gpu=GPU, timeout_s=60.0).run(writer)

    def reader(ctx):
        model, engine = build(ctx, stage=1)
        with pytest.raises(ValueError, match="engine"):
            load_checkpoint(engine, tmp_path / "c")
        return True

    assert Cluster(WORLD, gpu=GPU, timeout_s=60.0).run(reader) == [True] * WORLD


def test_meta_engine_rejected(tmp_path):
    def fn(ctx):
        zero = ZeROConfig(stage=2, checkpoint_activations=False, memory_defrag=False)
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, meta=True,
        )
        with pytest.raises(ValueError, match="meta"):
            save_checkpoint(engine, tmp_path / "c")
        return True

    assert Cluster(1, gpu=GPU).run(fn) == [True]


def test_fp16_resume(tmp_path):
    """Resume correctness holds for half-precision training too."""
    ckpt = tmp_path / "c16"

    def straight(ctx):
        model, engine = build(ctx, stage=2, dtype=np.float16)
        train(engine, ctx, 0, 2)
        save_checkpoint(engine, ckpt)
        return train(engine, ctx, 2, 2)

    ref = Cluster(WORLD, gpu=GPU, timeout_s=60.0).run(straight)

    def resumed(ctx):
        model, engine = build(ctx, stage=2, dtype=np.float16)
        load_checkpoint(engine, ckpt)
        return train(engine, ctx, 2, 2)

    out = Cluster(WORLD, gpu=GPU, timeout_s=60.0).run(resumed)
    assert out == ref


# -- durability: atomic writes, torn-checkpoint detection ---------------------


def test_save_leaves_no_temp_files(tmp_path):
    def fn(ctx):
        model, engine = build(ctx, stage=2)
        train(engine, ctx, 0, 1)
        save_checkpoint(engine, tmp_path / "c")

    Cluster(WORLD, gpu=GPU, timeout_s=60.0).run(fn)
    leftovers = [p.name for p in (tmp_path / "c").iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
    assert (tmp_path / "c" / "meta.json").exists()


def test_torn_checkpoint_step_mismatch_rejected(tmp_path):
    """A rank file from a different save than meta.json promises must be
    rejected (simulated torn checkpoint)."""

    def writer(ctx):
        model, engine = build(ctx, stage=2)
        train(engine, ctx, 0, 1)
        save_checkpoint(engine, tmp_path / "a")
        train(engine, ctx, 1, 1)
        save_checkpoint(engine, tmp_path / "b")

    Cluster(WORLD, gpu=GPU, timeout_s=60.0).run(writer)
    # Tear checkpoint "b": replace one rank's shard with the older save's.
    (tmp_path / "b" / "rank1.npz").write_bytes(
        (tmp_path / "a" / "rank1.npz").read_bytes()
    )

    def reader(ctx):
        model, engine = build(ctx, stage=2)
        with pytest.raises(ValueError, match="torn"):
            load_checkpoint(engine, tmp_path / "b")
        return True

    assert Cluster(WORLD, gpu=GPU, timeout_s=60.0).run(reader) == [True] * WORLD


def test_missing_rank_file_rejected(tmp_path):
    def writer(ctx):
        model, engine = build(ctx, stage=2)
        train(engine, ctx, 0, 1)
        save_checkpoint(engine, tmp_path / "c")

    Cluster(WORLD, gpu=GPU, timeout_s=60.0).run(writer)
    (tmp_path / "c" / "rank1.npz").unlink()

    def reader(ctx):
        model, engine = build(ctx, stage=2)
        with pytest.raises(ValueError, match="torn"):
            load_checkpoint(engine, tmp_path / "c")
        return True

    assert Cluster(WORLD, gpu=GPU, timeout_s=60.0).run(reader) == [True] * WORLD


def test_latest_checkpoint_skips_torn(tmp_path):
    from repro.zero.checkpoint_io import is_complete_checkpoint, latest_checkpoint

    root = tmp_path / "root"

    def fn(ctx):
        model, engine = build(ctx, stage=1)
        train(engine, ctx, 0, 1)
        save_checkpoint(engine, root / "step1")
        train(engine, ctx, 1, 1)
        save_checkpoint(engine, root / "step2")

    Cluster(WORLD, gpu=GPU, timeout_s=60.0).run(fn)
    assert latest_checkpoint(root) == root / "step2"
    assert is_complete_checkpoint(root / "step2")
    # Tear the newest save: discovery must fall back to the older one.
    (root / "step2" / "rank0.npz").unlink()
    assert not is_complete_checkpoint(root / "step2")
    assert latest_checkpoint(root) == root / "step1"
    assert latest_checkpoint(tmp_path / "nonexistent") is None


# -- elastic re-sharding ------------------------------------------------------


@pytest.mark.parametrize("stage,new_world", [(1, 2), (2, 2), (3, 2), (2, 8), (3, 8)])
def test_resharded_resume_bitwise(stage, new_world, tmp_path):
    """A 4-rank checkpoint loaded into a smaller or larger world must resume
    exactly like an uninterrupted new-world run loaded from the same state:
    train at the new degree and compare trajectories bitwise against a
    second re-sharded load."""
    from repro.zero.checkpoint_io import load_checkpoint_resharded

    ckpt = tmp_path / "c"

    def writer(ctx):
        model, engine = build(ctx, stage)
        train(engine, ctx, 0, 2)
        save_checkpoint(engine, ckpt)
        return engine.opt_state.master.numpy().copy()

    old_masters = Cluster(4, gpu=GPU, timeout_s=60.0).run(writer)

    def resumed(ctx):
        model, engine = build(ctx, stage)
        load_checkpoint_resharded(engine, ckpt)
        assert engine.step_count == 2
        master = engine.opt_state.master.numpy().copy()
        losses = train(engine, ctx, 2, 2)
        return master, losses

    out = Cluster(new_world, gpu=GPU, timeout_s=60.0).run(resumed)

    # The re-sharded masters must be exactly the old flat state, re-sliced.
    full_old = np.concatenate(old_masters)
    unpadded = CFG.total_params
    for rank in range(new_world):
        got = out[rank][0]
        lo = rank * len(got)
        reference = np.zeros(len(got), np.float32)
        valid = max(0, min(unpadded - lo, len(got)))
        if valid:
            reference[:valid] = full_old[lo : lo + valid]
        np.testing.assert_array_equal(got, reference)
    # And training after the re-shard is deterministic (trajectories agree
    # across a second independent load).
    out2 = Cluster(new_world, gpu=GPU, timeout_s=60.0).run(resumed)
    assert [o[1] for o in out2] == [o[1] for o in out]


def test_resharded_same_world_is_plain_load(tmp_path):
    from repro.zero.checkpoint_io import load_checkpoint_resharded

    ckpt = tmp_path / "c"

    def straight(ctx):
        model, engine = build(ctx, stage=2)
        train(engine, ctx, 0, 2)
        save_checkpoint(engine, ckpt)
        losses = train(engine, ctx, 2, 2)
        return losses

    ref = Cluster(WORLD, gpu=GPU, timeout_s=60.0).run(straight)

    def resumed(ctx):
        model, engine = build(ctx, stage=2)
        load_checkpoint_resharded(engine, ckpt)
        return train(engine, ctx, 2, 2)

    assert Cluster(WORLD, gpu=GPU, timeout_s=60.0).run(resumed) == ref


# -- one read-and-verify, one record, one format ------------------------------


def _save(stage, world, path, dtype=np.float32, steps=1):
    def fn(ctx):
        model, engine = build(ctx, stage, dtype=dtype)
        train(engine, ctx, 0, steps)
        save_checkpoint(engine, path)
        return engine.layout.numel, engine.layout.numel_unpadded

    return Cluster(world, gpu=GPU, timeout_s=60.0).run(fn)[0]


def test_container_rot_is_the_same_rejection_through_both_doors(tmp_path):
    """Bit rot in a rank file's npz container (not an array's payload) is a
    ``ValueError: corrupt checkpoint`` whichever door reads it — the strict
    loader at the saved degree and the re-sharding one at another."""
    from repro.zero.checkpoint_io import is_complete_checkpoint, load_checkpoint_resharded

    ckpt = tmp_path / "c"
    _save(2, 4, ckpt)
    victim = ckpt / "rank1.npz"
    victim.write_bytes(victim.read_bytes()[:-30])
    assert not is_complete_checkpoint(ckpt)

    def reader(load):
        def fn(ctx):
            model, engine = build(ctx, stage=2)
            with pytest.raises(ValueError, match=r"corrupt checkpoint: rank1\.npz is unreadable"):
                load(engine, ckpt)
            return True

        return fn

    assert all(Cluster(4, gpu=GPU, timeout_s=60.0).run(reader(load_checkpoint)))
    assert all(Cluster(2, gpu=GPU, timeout_s=60.0).run(reader(load_checkpoint_resharded)))


V2_SCALARS = {
    "opt_step": "int64", "step_count": "int64", "micro_step": "int64",
    "scaler_scale": "float64", "scaler_good_steps": "int64", "scaler_skipped": "int64",
}
V2_META = ["format_version", "engine", "world_size", "flat_numel",
           "flat_numel_unpadded", "step_count", "model_dtype"]


@pytest.mark.parametrize("stage", [2, 3])
def test_v2_format_is_pinned(stage, tmp_path):
    """Golden: the keys and dtypes of ``rank{r}.npz`` (in file order), the
    ``checksums`` JSON entry, and the fields of ``meta.json``."""
    from repro.integrity.digest import digest_array
    from repro.zero import checkpoint_io

    assert checkpoint_io.FORMAT_VERSION == 2
    numel, unpadded = _save(stage, WORLD, tmp_path / "c", dtype=np.float16)
    golden = {"master": "float32", "m": "float32", "v": "float32", **V2_SCALARS}
    if stage == 3:
        golden["param_shard"] = "float16"
    for rank in range(WORLD):
        with np.load(tmp_path / "c" / f"rank{rank}.npz") as data:
            assert data.files == [*golden, "checksums"]
            assert {k: str(data[k].dtype) for k in golden} == golden
            assert data["checksums"].dtype.kind == "U" and data["checksums"].shape == ()
            checksums = json.loads(str(data["checksums"][()]))
            assert checksums == {k: digest_array(data[k]) for k in golden}
            assert all(data[k].shape == (numel // WORLD,) for k in golden if k not in V2_SCALARS)
    meta = json.loads((tmp_path / "c" / "meta.json").read_text())
    assert list(meta) == V2_META
    assert meta == {
        "format_version": 2, "engine": f"zero{stage}", "world_size": WORLD,
        "flat_numel": numel, "flat_numel_unpadded": unpadded, "step_count": 1,
        "model_dtype": "float16",
    }


@pytest.mark.parametrize("new_world", [2, 3])
def test_hand_assembled_v2_checkpoint_loads_through_both_doors(new_world, tmp_path):
    """A checkpoint written with nothing but numpy and json, to the
    documented layout, restores — at the written degree through
    ``load_checkpoint``, at another through ``load_checkpoint_resharded``."""
    from repro.integrity.digest import digest_array
    from repro.zero.checkpoint_io import load_checkpoint_resharded

    numel, unpadded = _save(2, 2, tmp_path / "probe")  # only to learn the flat sizes
    ckpt = tmp_path / "by-hand"
    ckpt.mkdir()
    flat = {
        k: np.where(np.arange(numel) < unpadded, scale * (1.0 + np.arange(numel)), 0.0)
        .astype(np.float32)
        for k, scale in (("master", 1e-3), ("m", 1e-5), ("v", 1e-7))
    }
    scalars = dict(zip(V2_SCALARS, (5, 5, 0, 2048.0, 3, 1)))
    for rank in range(2):
        part = slice(rank * numel // 2, (rank + 1) * numel // 2)
        payload = {k: a[part] for k, a in flat.items()}
        payload.update((k, np.asarray(v)) for k, v in scalars.items())
        payload["checksums"] = np.asarray(
            json.dumps({k: digest_array(v) for k, v in payload.items()})
        )
        np.savez(ckpt / f"rank{rank}.npz", **payload)
    (ckpt / "meta.json").write_text(json.dumps({
        "format_version": 2, "engine": "zero2", "world_size": 2, "flat_numel": numel,
        "flat_numel_unpadded": unpadded, "step_count": 5, "model_dtype": "float32",
    }))

    def fn(ctx):
        model, engine = build(ctx, stage=2)
        (load_checkpoint if new_world == 2 else load_checkpoint_resharded)(engine, ckpt)
        lo, hi = engine.checkpoint_partition()
        for key, state in (("master", engine.opt_state.master), ("m", engine.opt_state.m),
                           ("v", engine.opt_state.v)):
            expect = np.zeros(hi - lo, np.float32)
            valid = max(0, min(hi, unpadded) - lo)
            expect[:valid] = flat[key][lo : lo + valid]
            np.testing.assert_array_equal(state.numpy(), expect)
        assert (engine.opt_state.step_count, engine.step_count, engine._micro_step) == (5, 5, 0)
        assert (engine.scaler.scale, engine.scaler.good_steps, engine.scaler.n_skipped) == (2048.0, 3, 1)
        # The replicated fp16 parameters were rebuilt from the masters.
        served = np.concatenate([p.data.numpy().reshape(-1) for p in model.parameters()])
        np.testing.assert_array_equal(served, flat["master"][:unpadded].astype(served.dtype))
        return True

    assert all(Cluster(new_world, gpu=GPU, timeout_s=60.0).run(fn))


def test_owned_state_is_stated_once():
    """Source sweep: under ``src/repro`` the lock-step scalar keys have one
    definition, and whether a rank owns a ``param_shard`` is read from
    ``engine.placement``, never duck-typed."""
    import pathlib
    import re

    sources = {
        p: p.read_text()
        for p in (pathlib.Path(__file__).parents[1] / "src" / "repro").rglob("*.py")
    }
    defining = [
        p.name for p, text in sources.items()
        if re.search(r"^_?SCALAR_KEYS\s*=", text, re.M) or '"scaler_good_steps"' in text
    ]
    assert defining == ["owned.py"]
    duck = re.compile(r"""(hasattr\(\s*\w+|getattr\(\s*self)\s*,\s*["']param_shard["']""")
    assert [p.name for p, text in sources.items() if duck.search(text)] == []
