"""Section 7 communication volumes, measured from the per-rank ledger."""

import numpy as np
import pytest

from repro import Cluster, GPTConfig, ZeROConfig
from repro.analysis.comm_model import dp_volume_elements
from repro.comm.ledger import CommEvent, exact_ring_factor
from repro.data import SyntheticCorpus
from repro.hardware.specs import GPUSpec
from repro.parallel.engine import EngineConfig
from repro.tensor.tensor import Tensor
from repro.zero.factory import build_model_and_engine

GPU = GPUSpec("t", 2 * 10**9, 1e12)
CFG = GPTConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=61, max_seq_len=16)
CORPUS = SyntheticCorpus(61, seed=7)

EXPECTED_PSI = {0: 2.0, 1: 2.0, 2: 2.0, 3: 3.0}


def measure(stage, *, meta=False, world=4, bucket=1500):
    cluster = Cluster(world, gpu=GPU, timeout_s=60.0)

    def fn(ctx):
        zero = ZeROConfig(stage=stage, checkpoint_activations=True, memory_defrag=False)
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float16, seed=0, meta=meta,
            engine_config=EngineConfig(bucket_numel=bucket),
        )
        ctx.ledger.clear()
        if meta:
            ids = Tensor.meta((2, 16), np.int64, device=ctx.device)
            tgt = Tensor.meta((2, 16), np.int64, device=ctx.device)
            engine.train_step(ids, tgt)
        else:
            ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=0)
            engine.train_step(ids, tgt)
        psi_bytes = engine.layout.numel * 2
        return (
            ctx.ledger.nominal_bytes() / psi_bytes,
            {k: v / psi_bytes for k, v in ctx.ledger.by_phase().items()},
        )

    return cluster.run(fn)


@pytest.mark.parametrize("stage", [0, 1, 2, 3])
def test_nominal_volume_matches_paper(stage):
    for volume, _ in measure(stage):
        assert volume == pytest.approx(EXPECTED_PSI[stage], abs=1e-9)


@pytest.mark.parametrize("stage", [0, 1, 2, 3])
def test_meta_mode_volume_identical_to_real(stage):
    real = measure(stage, meta=False)
    meta = measure(stage, meta=True)
    for (rv, rp), (mv, mp_) in zip(real, meta):
        assert rv == pytest.approx(mv)
        assert set(rp) == set(mp_)


def test_stage2_breakdown_is_reduce_plus_allgather():
    _, phases = measure(2)[0]
    assert phases["grad-reduce"] == pytest.approx(1.0)
    assert phases["param-allgather"] == pytest.approx(1.0)


def test_stage3_breakdown_is_two_gathers_plus_reduce():
    _, phases = measure(3)[0]
    assert phases["param-gather"] == pytest.approx(2.0)  # forward + backward
    assert phases["grad-reduce"] == pytest.approx(1.0)
    assert "param-allgather" not in phases  # no end-of-step gather


def test_stage0_is_pure_allreduce():
    _, phases = measure(0)[0]
    assert set(phases) == {"grad-allreduce"}
    assert phases["grad-allreduce"] == pytest.approx(2.0)


@pytest.mark.parametrize("bucket", [500, 5000])
def test_volume_independent_of_bucket_size(bucket):
    for volume, _ in measure(2, bucket=bucket):
        assert volume == pytest.approx(2.0)


def test_volume_independent_of_world_size():
    for world in (2, 4):
        for volume, _ in measure(2, world=world):
            assert volume == pytest.approx(2.0)


def test_exact_ring_volume_scales_with_group():
    """Exact wire bytes carry the (N-1)/N ring factor the paper drops."""
    cluster = Cluster(4, gpu=GPU, timeout_s=60.0)

    def fn(ctx):
        zero = ZeROConfig(stage=0, checkpoint_activations=True, memory_defrag=False)
        model, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float16, seed=0,
        )
        ctx.ledger.clear()
        ids, tgt = CORPUS.sample_batch(2, 16, rank=ctx.rank, step=0)
        engine.train_step(ids, tgt)
        return ctx.ledger.exact_bytes() / ctx.ledger.nominal_bytes()

    ratio = cluster.run(fn)[0]
    assert ratio == pytest.approx(exact_ring_factor("all_reduce", 4) / 2.0)


#: One stage-3 step of CFG at world 4, bucket 1500, fp16, as (op, bytes):
#: forward gathers each unit, backward re-gathers it and reduces its
#: gradient buckets. Recorded before the rendezvous rewrite; the fabric
#: may get cheaper but this sequence may not move.
STAGE3_STEP = [
    ("broadcast", 4928), ("broadcast", 10016), ("broadcast", 14944), ("broadcast", 448),
    ("broadcast", 14496), ("broadcast", 10912), ("broadcast", 4032),
    ("broadcast", 4032), ("reduce", 4032),
    ("broadcast", 14496), ("broadcast", 10912), ("reduce", 14496), ("reduce", 10912),
    ("broadcast", 10016), ("broadcast", 14944), ("broadcast", 448),
    ("reduce", 10016), ("reduce", 14944), ("reduce", 448),
    ("broadcast", 4928), ("reduce", 4928),
]


def test_stage3_ledger_sequence_is_golden():
    """Three stage-3 steps at world 4 record, on every rank, exactly the
    golden ``CommEvent`` list — op order, sizes, group, phase — and each
    step's volume is ``comm_model``'s 3 Psi."""
    cluster = Cluster(4, gpu=GPU, timeout_s=60.0)

    def fn(ctx):
        zero = ZeROConfig(stage=3, checkpoint_activations=True, memory_defrag=False)
        _, engine = build_model_and_engine(
            ctx, CFG, zero, dp_group=ctx.world, dtype=np.float16, seed=0,
            engine_config=EngineConfig(bucket_numel=1500),
        )
        ctx.ledger.clear()
        for step in range(3):
            engine.train_step(*CORPUS.sample_batch(2, 16, rank=ctx.rank, step=step))
        return list(ctx.ledger.events), engine.layout.numel

    phase_of = {"broadcast": "param-gather", "reduce": "grad-reduce"}
    golden = [
        CommEvent(op, nbytes, 4, (0, 1, 2, 3), phase_of[op]) for op, nbytes in STAGE3_STEP
    ] * 3
    for events, psi in cluster.run(fn):
        assert events == golden
        assert all(type(e.message_bytes) is int for e in events)
        step_elements = sum(e.nominal_bytes for e in events) / 3 / 2  # fp16
        assert step_elements == dp_volume_elements(psi, 3) == 3 * psi
